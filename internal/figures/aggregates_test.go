package figures

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"realtracer/internal/stats"
	"realtracer/internal/trace"
)

// renderFigures renders every figure built from agg into one buffer.
func renderFromAgg(agg *Aggregates) []byte {
	var buf bytes.Buffer
	for _, g := range All() {
		g.Agg(agg).Render(&buf)
	}
	return buf.Bytes()
}

// TestStreamedAggregatesMatchBatch: observing records one at a time through
// the Sink interface must produce exactly the figures the batch slice path
// produces.
func TestStreamedAggregatesMatchBatch(t *testing.T) {
	recs := synthetic()
	streamed := NewAggregates()
	var sink trace.Sink = streamed // prove Aggregates satisfies trace.Sink
	for _, r := range recs {
		sink.Observe(r)
	}
	batch := renderFromAgg(Aggregate(recs))
	if got := renderFromAgg(streamed); !bytes.Equal(got, batch) {
		t.Fatal("streamed aggregates render differently from batch aggregates")
	}
	// And both must match the classic Build path.
	var classic bytes.Buffer
	for _, g := range All() {
		g.Build(recs).Render(&classic)
	}
	if !bytes.Equal(classic.Bytes(), batch) {
		t.Fatal("Build(recs) renders differently from shared-aggregate path")
	}
}

// TestAggregatesMergePartitions: partitioning the stream into partial
// aggregates and merging them in input order must reproduce the
// single-aggregate result — the campaign's per-scenario merge contract.
func TestAggregatesMergePartitions(t *testing.T) {
	recs := synthetic()
	whole := Aggregate(recs)
	want := renderFromAgg(whole)
	for _, parts := range []int{2, 3, 7} {
		partials := make([]*Aggregates, parts)
		for i := range partials {
			partials[i] = NewAggregates()
		}
		for i, r := range recs {
			partials[i%parts].Observe(r)
		}
		merged := NewAggregates()
		for _, p := range partials {
			merged.Merge(p)
		}
		if merged.Total() != whole.Total() || merged.Played() != whole.Played() ||
			merged.Rated() != whole.Rated() || merged.Users() != whole.Users() {
			t.Fatalf("parts=%d: headline counts differ after merge", parts)
		}
		if got := renderFromAgg(merged); !bytes.Equal(got, want) {
			t.Fatalf("parts=%d: merged aggregates render differently", parts)
		}
	}
}

func TestAggregatesCounts(t *testing.T) {
	a := NewAggregates()
	a.Observe(&trace.Record{User: "u1", Country: "US", State: "MA", Protocol: "TCP", MeasuredFPS: 10})
	a.Observe(&trace.Record{User: "u1", Country: "US", State: "MA", Unavailable: true, Server: "s"})
	a.Observe(&trace.Record{User: "u2", Country: "UK", Protocol: "UDP", MeasuredFPS: 5,
		MeasuredKbps: 300, Rated: true, Rating: 8, Access: "T1/LAN"})
	a.Observe(&trace.Record{User: "u3", Country: "UK", Failed: true})
	if a.Total() != 4 || a.Played() != 2 || a.Rated() != 1 ||
		a.Unavailable() != 1 || a.Failed() != 1 || a.Users() != 3 {
		t.Fatalf("counts wrong: total=%d played=%d rated=%d unavail=%d failed=%d users=%d",
			a.Total(), a.Played(), a.Rated(), a.Unavailable(), a.Failed(), a.Users())
	}
	if a.ProtocolPlayed("TCP") != 1 || a.ProtocolPlayed("UDP") != 1 {
		t.Fatal("protocol tallies wrong")
	}
	if a.FrameRate().N() != 2 || a.Jitter().N() != 2 || a.Rating().N() != 1 {
		t.Fatal("distribution counts wrong")
	}
}

// TestAggregatesPopulationScale exercises the binned sketch path: far more
// records than the exact cap, where the old slice-based generators would
// have held every record. The figures must still come out self-consistent.
func TestAggregatesPopulationScale(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewAggregates()
	const n = 30000
	for i := 0; i < n; i++ {
		r := &trace.Record{
			User:         "u" + string(rune('A'+i%700)),
			Country:      "US",
			State:        "MA",
			Region:       "US/Canada",
			ServerRegion: "Europe",
			Server:       "srv",
			Access:       AccessOrder[i%3],
			PCClass:      "Pentium III / 256-512MB",
			Protocol:     ProtocolOrder[i%2],
			MeasuredFPS:  rng.Float64() * 30,
			MeasuredKbps: rng.Float64() * 500,
			JitterMs:     rng.Float64() * 600,
		}
		if i%9 == 0 {
			r.Rated, r.Rating = true, float64(rng.Intn(11))
		}
		a.Observe(r)
	}
	if a.FrameRate().S.IsExact() {
		t.Fatal("30k samples should have promoted the sketch")
	}
	// Median of uniform(0,30) must be close to 15 even on the binned path.
	if med := a.FrameRate().Quantile(0.5); med < 14 || med > 16 {
		t.Fatalf("binned median fps %v implausible for uniform(0,30)", med)
	}
	var buf bytes.Buffer
	for _, g := range All() {
		fig := g.Agg(a)
		if len(fig.Series) == 0 {
			t.Fatalf("%s: no series at population scale", g.ID)
		}
		fig.Render(&buf)
	}
	if buf.Len() == 0 {
		t.Fatal("render produced nothing")
	}
}

func TestAggregatesEmpty(t *testing.T) {
	a := NewAggregates()
	for _, g := range All() {
		var buf bytes.Buffer
		g.Agg(a).Render(&buf) // must not panic
	}
	b := NewAggregates()
	a.Merge(b) // merging empties must not panic
	if a.Total() != 0 {
		t.Fatal("empty merge produced records")
	}
}

// TestWriteSummaryMatchesRecords: every headline number equals the same
// statistic computed straight from the record slice.
func TestWriteSummaryMatchesRecords(t *testing.T) {
	recs := synthetic()
	played := trace.Played(recs)
	fps, _ := stats.Summarize(trace.Values(played, func(r *trace.Record) float64 { return r.MeasuredFPS }))
	jitVals := trace.Values(played, func(r *trace.Record) float64 { return r.JitterMs })
	jit, _ := stats.Summarize(jitVals)
	jcdf, _ := stats.NewCDF(jitVals)
	var unavailable, tcp int
	for _, r := range recs {
		if r.Unavailable {
			unavailable++
		}
	}
	for _, r := range played {
		if r.Protocol == "TCP" {
			tcp++
		}
	}
	var buf bytes.Buffer
	Aggregate(recs).WriteSummary(&buf)
	got := buf.String()
	for _, want := range []string{
		fmt.Sprintf("played=%d unavailable=%d (%.1f%%) rated=%d\n",
			len(played), unavailable, 100*float64(unavailable)/float64(len(recs)), len(trace.Rated(recs))),
		fmt.Sprintf("transport: TCP=%d UDP=%d\n", tcp, len(played)-tcp),
		fmt.Sprintf("frame rate: mean=%.1f median=%.1f fps", fps.Mean, fps.Median),
		fmt.Sprintf("jitter: mean=%.0f median=%.0f ms, <=50ms %.0f%%", jit.Mean, jit.Median, 100*jcdf.At(50)),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}
}
