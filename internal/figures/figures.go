// Package figures regenerates every figure of the paper's evaluation from a
// set of trace records: the demographic breakdowns (Figures 5-10), the
// frame-rate analysis (11, 12, 14, 15, 17, 19), bandwidth (13, 18), the
// transport mix (16), jitter (20-25) and perceptual quality (26-28).
//
// Every generator is backed by a single-pass Aggregates build over the
// record stream (see aggregates.go): records can be aggregated as they are
// produced — via the trace.Sink interface — and the figures computed from
// the aggregate without ever holding the records in memory. The classic
// Build-from-a-slice path remains for trace files and tests.
//
// Each generator returns a Figure holding plottable series plus summary
// notes; Render prints it as an ASCII table the way the paper's graphs read.
package figures

import (
	"fmt"
	"io"
	"strings"

	"realtracer/internal/stats"
	"realtracer/internal/trace"
)

// Kind describes how a figure is plotted.
type Kind string

// Figure kinds.
const (
	KindCDF     Kind = "cdf"
	KindBar     Kind = "bar"
	KindPie     Kind = "pie"
	KindScatter Kind = "scatter"
	KindSeries  Kind = "timeseries"
)

// Series is one labeled line/bar-set of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// Labels substitutes for X on categorical (bar) figures.
	Labels []string
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Kind   Kind
	Series []Series
	// Notes carries the scalar observations the paper calls out in prose.
	Notes []string
}

func note(f *Figure, format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// cdfSeries converts samples to a CDF series sampled densely enough to
// plot.
func cdfSeries(label string, samples []float64) Series {
	c, err := stats.NewCDF(samples)
	if err != nil {
		return Series{Label: label}
	}
	xs, fs := c.Points(64)
	return Series{Label: label, X: xs, Y: fs}
}

// Generator builds a figure from a study's aggregates.
type Generator struct {
	ID    string
	Title string
	// Agg builds the figure from a completed single-pass aggregate build.
	Agg func(*Aggregates) Figure
}

// Build regenerates the figure from raw records: one aggregate pass, then
// the aggregate-backed builder. Building many figures from the same records
// is cheaper via a shared Aggregate(recs) and the Agg funcs directly.
func (g Generator) Build(recs []*trace.Record) Figure { return g.Agg(Aggregate(recs)) }

// All lists every record-driven figure generator in paper order. (Figure 1
// is a single-session timeline, produced by core.Fig01Timeline.)
func All() []Generator {
	return []Generator{
		{"fig05", "CDF of video clips played per user", (*Aggregates).Fig05ClipsPerUser},
		{"fig06", "CDF of video clips rated per user", (*Aggregates).Fig06RatedPerUser},
		{"fig07", "Clips played by users from each country", (*Aggregates).Fig07ByUserCountry},
		{"fig08", "Clips served by RealServers from each country", (*Aggregates).Fig08ByServerCountry},
		{"fig09", "Clips played by U.S. users from each state", (*Aggregates).Fig09ByUSState},
		{"fig10", "Fraction of unavailable clips per server", (*Aggregates).Fig10Unavailable},
		{"fig11", "CDF of frame rate for all video clips", (*Aggregates).Fig11FrameRateAll},
		{"fig12", "CDF of frame rate by end-host network configuration", (*Aggregates).Fig12FrameRateByAccess},
		{"fig13", "CDF of bandwidth by end-host network configuration", (*Aggregates).Fig13BandwidthByAccess},
		{"fig14", "CDF of frame rate by server geographic region", (*Aggregates).Fig14FrameRateByServerRegion},
		{"fig15", "CDF of frame rate by user geographic region", (*Aggregates).Fig15FrameRateByUserRegion},
		{"fig16", "Fraction of transport protocols observed", (*Aggregates).Fig16ProtocolMix},
		{"fig17", "CDF of frame rate by transport protocol", (*Aggregates).Fig17FrameRateByProtocol},
		{"fig18", "CDF of bandwidth by transport protocol", (*Aggregates).Fig18BandwidthByProtocol},
		{"fig19", "CDF of frame rate by user PC class", (*Aggregates).Fig19FrameRateByPC},
		{"fig20", "CDF of overall jitter", (*Aggregates).Fig20JitterAll},
		{"fig21", "CDF of jitter by network configuration", (*Aggregates).Fig21JitterByAccess},
		{"fig22", "CDF of jitter by server geographic region", (*Aggregates).Fig22JitterByServerRegion},
		{"fig23", "CDF of jitter by user geographic region", (*Aggregates).Fig23JitterByUserRegion},
		{"fig24", "CDF of jitter by transport protocol", (*Aggregates).Fig24JitterByProtocol},
		{"fig25", "CDF of jitter by observed bandwidth", (*Aggregates).Fig25JitterByBandwidth},
		{"fig26", "CDF of overall quality rating", (*Aggregates).Fig26QualityAll},
		{"fig27", "CDF of quality by network configuration", (*Aggregates).Fig27QualityByAccess},
		{"fig28", "Quality rating vs network bandwidth", (*Aggregates).Fig28QualityVsBandwidth},
	}
}

// ByID returns the generator for an id like "fig11".
func ByID(id string) (Generator, bool) {
	for _, g := range All() {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}

// AccessOrder is the paper's access-class ordering.
var AccessOrder = []string{"56k Modem", "DSL/Cable", "T1/LAN"}

// ServerRegionOrder and UserRegionOrder follow the paper's legends.
var (
	ServerRegionOrder = []string{"Asia", "Brazil", "US/Canada", "Australia", "Europe"}
	UserRegionOrder   = []string{"Australia", "US/Canada", "Asia", "Europe"}
)

// ProtocolOrder for the protocol splits.
var ProtocolOrder = []string{"TCP", "UDP"}

// BandwidthBands are Figure 25's buckets.
var BandwidthBands = []string{"< 10K", "10K - 100K", "> 100K"}

func bandwidthBand(r *trace.Record) string {
	switch {
	case r.MeasuredKbps < 10:
		return BandwidthBands[0]
	case r.MeasuredKbps <= 100:
		return BandwidthBands[1]
	default:
		return BandwidthBands[2]
	}
}

// Render prints the figure as text: notes, then the series as aligned
// columns, plus a coarse ASCII plot for CDFs.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	switch f.Kind {
	case KindBar, KindPie:
		for _, s := range f.Series {
			maxV := 0.0
			for _, v := range s.Y {
				if v > maxV {
					maxV = v
				}
			}
			for i, label := range s.Labels {
				bar := ""
				if maxV > 0 {
					bar = strings.Repeat("#", int(40*s.Y[i]/maxV))
				}
				fmt.Fprintf(w, "   %-22s %8.3f %s\n", label, s.Y[i], bar)
			}
		}
	case KindCDF:
		// Tabulate each series at its deciles.
		for _, s := range f.Series {
			if len(s.X) == 0 {
				continue
			}
			fmt.Fprintf(w, "   %s:\n     ", s.Label)
			for q := 1; q <= 9; q++ {
				idx := quantileIndex(s.Y, float64(q)/10)
				fmt.Fprintf(w, "p%d0=%.4g ", q, s.X[idx])
			}
			fmt.Fprintln(w)
		}
	case KindScatter:
		for _, s := range f.Series {
			if s.Label != "binned mean" {
				continue
			}
			for i := range s.X {
				fmt.Fprintf(w, "   x=%8.1f  mean_y=%.2f\n", s.X[i], s.Y[i])
			}
		}
	case KindSeries:
		for _, s := range f.Series {
			fmt.Fprintf(w, "   series %s: %d points\n", s.Label, len(s.X))
		}
	}
	fmt.Fprintln(w)
}

// WriteSummary prints the headline numbers of a study or a trace file:
// outcome counts, the transport mix, the frame-rate and jitter
// distributions over played clips and, for open-loop records, the
// per-policy workload breakdown.
func (a *Aggregates) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "  played=%d unavailable=%d (%.1f%%) rated=%d\n",
		a.played, a.unavailable, 100*float64(a.unavailable)/float64(a.total), a.rated)
	fmt.Fprintf(w, "  transport: TCP=%d UDP=%d\n", a.ProtocolPlayed("TCP"), a.ProtocolPlayed("UDP"))
	if s, err := a.fpsAll.Summary(); err == nil {
		cdf, _ := a.fpsAll.CDF()
		fmt.Fprintf(w, "  frame rate: mean=%.1f median=%.1f fps, below 3 fps %.0f%%, 15+ fps %.0f%%\n",
			s.Mean, s.Median, 100*cdf.FractionBelow(3), 100*cdf.FractionAtLeast(15))
	}
	if s, err := a.jitAll.Summary(); err == nil {
		cdf, _ := a.jitAll.CDF()
		fmt.Fprintf(w, "  jitter: mean=%.0f median=%.0f ms, <=50ms %.0f%%, >=300ms %.0f%%\n",
			s.Mean, s.Median, 100*cdf.At(50), 100*cdf.FractionAtLeast(300))
	}
	a.WriteWorkload(w)
}

// WriteWorkload prints the per-selection-policy workload breakdown
// (startup delay, stalls, and how evenly plays spread across the mirrors)
// plus the concurrent-clip peak. Panel-only aggregates print nothing.
func (a *Aggregates) WriteWorkload(w io.Writer) {
	rows := a.Workload()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, "  workload by selection policy (per played clip):")
	for _, r := range rows {
		fmt.Fprintf(w, "    %-12s played=%-4d failed=%-3d startup mean=%.1fs  rebuffers mean=%.2f  servers=%-2d load-balance CV=%.2f\n",
			r.Policy, r.Played, r.Failed, r.MeanStartupSec, r.MeanRebuffers, r.Servers, r.LoadBalance)
	}
	if peak, at := a.PeakConcurrency(); peak > 0 {
		fmt.Fprintf(w, "  concurrency: peak %d clips in flight at minute %d\n", peak, at)
	}
}

// quantileIndex returns the first index of ys (a CDF's F values) reaching q.
func quantileIndex(ys []float64, q float64) int {
	for i, y := range ys {
		if y >= q {
			return i
		}
	}
	return len(ys) - 1
}
