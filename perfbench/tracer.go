package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"realtracer/internal/figures"
	"realtracer/internal/study"
	"realtracer/internal/trace"
)

// span is one timed call into the program, recorded by the benchmark
// around a public entry point. Parent is the enclosing span's ID, 0 for a
// root.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the tracer began
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory for one traced repetition, plus the
// per-layer figures only a traced run observes. Nothing inside the program
// is instrumented.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // IDs of the spans begun and not yet ended

	observe    []time.Duration // one per record handed to the aggregates
	pendingMax int             // max Clock.Pending at slice boundaries
	// Warm-fork replay only: events the sweep executed (the prefix once
	// plus each fork's suffix) and server counters summed over forks.
	executed         uint64
	played, tornDown uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) parent() int {
	if n := len(tr.open); n > 0 {
		return tr.open[n-1]
	}
	return 0
}

// begin opens a span under the innermost open span and returns its ID.
func (tr *tracer) begin(name string) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: tr.parent(), Name: name, Start: int64(time.Since(tr.t0))})
	tr.open = append(tr.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (tr *tracer) end(id int, attrs map[string]int64) {
	sp := &tr.spans[id-1]
	sp.End = int64(time.Since(tr.t0))
	sp.Attrs = attrs
	tr.open = tr.open[:len(tr.open)-1]
}

// record adds a closed span that began at start and lasted d.
func (tr *tracer) record(name string, start time.Time, d time.Duration, attrs map[string]int64) {
	s := int64(start.Sub(tr.t0))
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: tr.parent(), Name: name, Start: s, End: s + int64(d), Attrs: attrs})
}

// timingSink hands each record to agg under an Observe span, then to next
// (untimed) if set.
func (tr *tracer) timingSink(agg *figures.Aggregates, next trace.Sink) trace.Sink {
	return trace.SinkFunc(func(r *trace.Record) {
		t := time.Now()
		agg.Observe(r)
		d := time.Since(t)
		tr.observe = append(tr.observe, d)
		tr.record("Observe", t, d, nil)
		if next != nil {
			next.Observe(r)
		}
	})
}

// slicedRun drives w in fixed virtual-time RunUntil slices, each span
// carrying the Fired, Pending and Network.Stats deltas of its slice, and
// stops slicing before limit (the completion instant) to finish with Run,
// so the run fires exactly the events an unsliced Run fires. A zero limit
// runs unsliced.
func (tr *tracer) slicedRun(w *study.World, limit time.Duration) (*study.Result, error) {
	for t := sliceWidth; t < limit; t += sliceWidth {
		f0 := w.Clock.Fired()
		s0, d0, r0 := w.Net.Stats()
		sp := tr.begin("RunUntil")
		if err := w.RunUntil(t); err != nil {
			tr.end(sp, nil)
			return nil, err
		}
		s1, d1, r1 := w.Net.Stats()
		pending := w.Clock.Pending()
		tr.end(sp, map[string]int64{
			"virtual_s": int64(t / time.Second),
			"fired":     int64(w.Clock.Fired() - f0),
			"pending":   int64(pending),
			"sent":      int64(s1 - s0),
			"delivered": int64(d1 - d0),
			"dropped":   int64(r1 - r0),
		})
		tr.pendingMax = max(tr.pendingMax, pending)
	}
	sp := tr.begin("Run")
	res, err := w.Run()
	var attrs map[string]int64
	if err == nil {
		attrs = map[string]int64{"events": int64(res.Events)}
	}
	tr.end(sp, attrs)
	return res, err
}

// observeMedian is the median per-record Observe time.
func (tr *tracer) observeMedian() time.Duration {
	xs := make([]float64, len(tr.observe))
	for i, d := range tr.observe {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// spanDurations returns the durations of the spans named name.
func (tr *tracer) spanDurations(name string) []time.Duration {
	var out []time.Duration
	for _, sp := range tr.spans {
		if sp.Name == name {
			out = append(out, time.Duration(sp.End-sp.Start))
		}
	}
	return out
}

// write saves the spans as JSON.
func (tr *tracer) write(path string) error {
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
