package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"realtracer/internal/trace"
)

// counts are the exact, deterministic observables of one repetition. Two
// repetitions of a workload at one seed must produce equal counts, and so
// must the traced run; any difference is a failed output check.
type counts struct {
	Records      int
	Digest       string // sha256 over the record stream, in delivery order
	FigureDigest string // sha256 over the 24 built figures (panel only)
	Events       uint64 // Result.Events (summed over forks on warmfork)
	Shard0Events uint64 // shard 0's Clock.Fired (sharded only)
	SimDuration  time.Duration
	Sent         uint64 // Network.Stats, classic engine only
	Delivered    uint64
	Dropped      uint64
	InFlight     uint64 // packets still pending when Run returned
	Sessions     int
	Balked       int
	Departed     int
	Played       uint64 // Server.Counters summed over World.Servers
	TornDown     uint64
	Snapshot     int // snapshot bytes (warmfork only)
}

// sample is what one repetition measured.
type sample struct {
	setups   []time.Duration // each timed study.NewWorld
	run      time.Duration   // wall time of Run (plus the figure build) or the sweep
	cpu      time.Duration   // process CPU time (user+system) during run
	figBuild time.Duration   // core.AllFiguresAgg (panel only)
	allocs   uint64          // heap allocations during run
	peakHeap uint64          // live-heap high-water mark during run, bytes
	prefix   time.Duration   // warmfork: WarmForkResult.WarmupElapsed
	forks    []time.Duration // warmfork: each ScenarioResult.Elapsed
	limits   []time.Duration // each world's Result.SimDuration
	counts   counts
}

// add sums another world's sample into s, as one repetition.
func (s *sample) add(o sample) {
	s.setups = append(s.setups, o.setups...)
	s.run += o.run
	s.cpu += o.cpu
	s.figBuild += o.figBuild
	s.allocs += o.allocs
	s.peakHeap = max(s.peakHeap, o.peakHeap)
	s.limits = append(s.limits, o.limits...)
	s.counts.add(o.counts)
}

// add sums another world's counts into c; the digests chain in order.
func (c *counts) add(o counts) {
	c.Records += o.Records
	c.Digest = chain(c.Digest, o.Digest)
	c.FigureDigest = chain(c.FigureDigest, o.FigureDigest)
	c.Events += o.Events
	c.Shard0Events += o.Shard0Events
	c.SimDuration += o.SimDuration
	c.Sent += o.Sent
	c.Delivered += o.Delivered
	c.Dropped += o.Dropped
	c.InFlight += o.InFlight
	c.Sessions += o.Sessions
	c.Balked += o.Balked
	c.Departed += o.Departed
	c.Played += o.Played
	c.TornDown += o.TornDown
	c.Snapshot += o.Snapshot
}

// chain extends digest a with b; an empty a is b itself, so one world's
// counts are unchanged by adding them to zero counts.
func chain(a, b string) string {
	if a == "" {
		return b
	}
	sum := sha256.Sum256([]byte(a + b))
	return hex.EncodeToString(sum[:])
}

// tally counts operations and their failures: one world run, or one fork,
// is one operation. A failure is a returned error, a stall or a failed
// output check; nothing is retried.
type tally struct {
	attempted, failed int
	errs              []string
}

// op records one operation and reports whether it succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// settle records a repetition's operations in t and reports whether the
// repetition is clean: no operation failed and, when ref is set, its exact
// counts equal ref. When the counts differ, every operation of the
// repetition counts as failed.
func (t *tally) settle(s sample, errs []error, ref *counts) bool {
	clean := !slices.ContainsFunc(errs, func(e error) bool { return e != nil })
	if clean && ref != nil && s.counts != *ref {
		err := fmt.Errorf("exact counts differ from the reference: got %+v, want %+v", s.counts, *ref)
		for i := range errs {
			errs[i] = err
		}
		clean = false
	}
	for _, e := range errs {
		t.op(e)
	}
	return clean
}

// repeat runs rep until budget has elapsed, at least once, and returns the
// clean repetitions, whose exact counts all equal the first one's.
func repeat(budget time.Duration, t *tally, rep func() (sample, []error)) []sample {
	var out []sample
	var ref *counts
	deadline := time.Now().Add(budget)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		s, errs := rep()
		if !t.settle(s, errs, ref) {
			continue
		}
		if ref == nil {
			ref = &s.counts
		}
		out = append(out, s)
	}
	return out
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf applies median to one field of every sample.
func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// digestSink hashes every record it observes, in order. Ordinal is zeroed
// first: it identifies a launch, not an observable of the study.
type digestSink struct {
	h hash.Hash
	n int
}

func newDigestSink() *digestSink { return &digestSink{h: sha256.New()} }

func (d *digestSink) Observe(r *trace.Record) {
	c := *r
	c.Ordinal = 0
	fmt.Fprintf(d.h, "%+v\n", c)
	d.n++
}

func (d *digestSink) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestOf hashes any values by their %+v form, which prints floats in
// their shortest exact representation (and NaN without error).
func digestOf[T any](vs []T) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocCount returns the process's cumulative heap allocation count. It
// stops the world briefly, so call it outside timed regions.
func allocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// heapWatch tracks the high-water mark of live heap, sampled at the end of
// every garbage collection. A sentinel object with a finalizer is dropped
// each cycle; the runtime's finalizer goroutine samples /gc/heap/live:bytes
// and re-arms, so no goroutine of the benchmark polls.
type heapWatch struct {
	gen  atomic.Uint64 // bumped by start and stop; stale chains die
	peak atomic.Uint64
}

type gcSentinel struct{ _ *gcSentinel } // holds a pointer: never tiny-allocated

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (h *heapWatch) observe() {
	v := liveHeap()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (h *heapWatch) arm(gen uint64) {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		if h.gen.Load() != gen {
			return
		}
		h.observe()
		h.arm(gen)
	})
}

// start collects garbage, so the baseline is the live heap, and begins
// tracking.
func (h *heapWatch) start() {
	runtime.GC()
	h.peak.Store(0)
	h.observe()
	h.arm(h.gen.Add(1))
}

// stop ends tracking and returns the peak in bytes. It collects garbage
// first, so a heap that grows until the run ends (the panel's does) is read
// exactly at its peak rather than at whichever collection came last; the
// caller keeps the run's state reachable until stop returns.
func (h *heapWatch) stop() uint64 {
	h.gen.Add(1)
	runtime.GC()
	h.observe()
	return h.peak.Load()
}
