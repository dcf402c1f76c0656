package core

import (
	"bytes"
	"testing"
	"time"

	"realtracer/internal/figures"
	"realtracer/internal/netsim"
	"realtracer/internal/study"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
)

func TestRunSessionBasics(t *testing.T) {
	st, err := RunSession(SessionOptions{
		Protocol:     transport.UDP,
		ClientAccess: netsim.AccessDSLCable,
		ClipKbps:     225,
		PlayFor:      30 * time.Second,
		Seed:         3,
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if st.FramesPlayed == 0 || st.MeasuredKbps == 0 {
		t.Fatalf("empty session: %+v", st)
	}
}

func TestFig01TimelineShape(t *testing.T) {
	fig, st, err := Fig01Timeline(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series=%d want 4 (coded/current x bandwidth/framerate)", len(fig.Series))
	}
	// The paper's Figure 1: an initial buffering phase with zero frame
	// rate, then steady playout.
	if st.BufferingTime < 2*time.Second {
		t.Fatalf("buffering %.1fs too short for the figure", st.BufferingTime.Seconds())
	}
	var sawZeroFPS, sawPlayout bool
	for _, pt := range st.Timeline {
		if pt.T < st.BufferingTime && pt.FPS == 0 && pt.Kbps > 0 {
			sawZeroFPS = true
		}
		if pt.FPS > 5 {
			sawPlayout = true
		}
	}
	if !sawZeroFPS || !sawPlayout {
		t.Fatalf("timeline missing buffering (zero fps with data) or playout phase")
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("render empty")
	}
}

func TestAllFiguresFromReducedStudy(t *testing.T) {
	res, err := study.Run(study.Options{Seed: 2, MaxUsers: 8, ClipCap: 6})
	if err != nil {
		t.Fatal(err)
	}
	figs := AllFiguresAgg(figures.Aggregate(res.Records))
	if len(figs) != 24 {
		t.Fatalf("figures=%d want 24", len(figs))
	}
	var buf bytes.Buffer
	for _, f := range figs {
		f.Render(&buf)
	}
	if buf.Len() < 1000 {
		t.Fatalf("render suspiciously small: %d bytes", buf.Len())
	}
}

func TestRunSessionAblationsDiffer(t *testing.T) {
	base, err := RunSession(SessionOptions{
		Protocol: transport.UDP, ClientAccess: netsim.AccessDSLCable,
		ClipKbps: 350, Seed: 5,
		Route: netsim.Route{OneWayDelay: 40 * time.Millisecond, LossRate: 0.03},
	})
	if err != nil {
		t.Fatal(err)
	}
	noFEC, err := RunSession(SessionOptions{
		Protocol: transport.UDP, ClientAccess: netsim.AccessDSLCable,
		ClipKbps: 350, Seed: 5, DisableFEC: true,
		Route: netsim.Route{OneWayDelay: 40 * time.Millisecond, LossRate: 0.03},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With 3% loss, disabling FEC must not reduce corruption.
	if noFEC.FramesCorrupted < base.FramesCorrupted {
		t.Fatalf("FEC off reduced corruption: %d vs %d", noFEC.FramesCorrupted, base.FramesCorrupted)
	}
}

func TestStudyRecordsFeedRealdataPath(t *testing.T) {
	// The CSV written by the study must round-trip for the realdata tool.
	res, err := study.Run(study.Options{Seed: 4, MaxUsers: 4, ClipCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got), len(res.Records))
	}
	if g, _ := figures.ByID("fig11"); len(g.Build(got).Series) == 0 {
		t.Fatal("fig11 empty after the CSV round trip")
	}
}
