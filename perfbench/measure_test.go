package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"realtracer/internal/trace"
)

func TestShardImbalance(t *testing.T) {
	for _, c := range []struct {
		shard0, total uint64
		want          float64
	}{
		{6_100_000, 10_300_000, 6_100_000 / 5_150_000.0}, // shard 0 busiest
		{4_200_000, 10_300_000, 6_100_000 / 5_150_000.0}, // shard 1 busiest
		{5, 10, 1},  // balanced
		{0, 10, 2},  // everything on shard 1
		{0, 0, 0},   // no events: not applicable
		{10, 10, 2}, // everything on shard 0
	} {
		if got := shardImbalance(c.shard0, c.total); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("shardImbalance(%d, %d) = %v, want %v", c.shard0, c.total, got, c.want)
		}
	}
}

func TestDigestSink(t *testing.T) {
	recs := []*trace.Record{
		{User: "u1", ClipURL: "rtsp://a/1", MeasuredFPS: 12.5, Ordinal: 7},
		{User: "u2", ClipURL: "rtsp://b/2", MeasuredFPS: math.NaN(), Failed: true},
	}
	sum := func(rs []*trace.Record) string {
		d := newDigestSink()
		for _, r := range rs {
			d.Observe(r)
		}
		return d.sum()
	}
	a := sum(recs)
	if b := sum(recs); a != b {
		t.Fatalf("same records, different digests %s and %s", a, b)
	}
	renumbered := []*trace.Record{{User: "u1", ClipURL: "rtsp://a/1", MeasuredFPS: 12.5, Ordinal: 99}, recs[1]}
	if b := sum(renumbered); a != b {
		t.Errorf("Ordinal changed the digest")
	}
	if b := sum([]*trace.Record{recs[1], recs[0]}); a == b {
		t.Errorf("reordered records, same digest")
	}
	nudged := *recs[0]
	nudged.MeasuredFPS = math.Nextafter(12.5, 13)
	if b := sum([]*trace.Record{&nudged, recs[1]}); a == b {
		t.Errorf("a one-ulp change in a float kept the digest")
	}
}

func TestRepeatCountsInjectedFailures(t *testing.T) {
	var tl tally
	calls, injected := 0, 0
	ss := repeat(20*time.Millisecond, &tl, func() (sample, []error) {
		calls++
		switch calls % 3 {
		case 1: // a clean single-operation repetition
			return sample{counts: counts{Records: 3, Digest: "d"}}, []error{nil}
		case 2: // the operation returns an error
			injected++
			return sample{}, []error{errors.New("injected")}
		default: // one fork of three fails: the sample is dropped, one failure counted
			injected++
			return sample{counts: counts{Records: 3, Digest: "d"}}, []error{nil, errors.New("injected fork"), nil}
		}
	})
	if calls < 3 {
		t.Fatalf("only %d repetitions in the budget", calls)
	}
	clean := calls - injected
	if tl.failed != injected || len(ss) != clean || tl.errorRate() <= 0 {
		t.Errorf("%d repetitions (%d injected failures): %d samples, tally %+v", calls, injected, len(ss), tl)
	}
	if want := clean + (calls+1)/3 + 3*(calls/3); tl.attempted != want {
		t.Errorf("attempted %d, want %d", tl.attempted, want)
	}
}

func TestRepeatCountsMismatchAsFailure(t *testing.T) {
	var tl tally
	n := 0
	ss := repeat(20*time.Millisecond, &tl, func() (sample, []error) {
		n++
		d := "same"
		if n == 2 {
			d = "changed"
		}
		return sample{counts: counts{Digest: d}}, []error{nil, nil}
	})
	if n < 3 {
		t.Fatalf("only %d repetitions in the budget", n)
	}
	if tl.failed != 2 || tl.attempted != 2*n || len(ss) != n-1 {
		t.Errorf("after %d repetitions: %d samples, tally %+v; want the changed one's 2 operations failed", n, len(ss), tl)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
