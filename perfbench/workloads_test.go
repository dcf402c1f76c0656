package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"realtracer/internal/study"
)

// smallBench is a bench over a cut-down world of the named workload, small
// enough for a unit test.
func smallBench(t *testing.T, name string, opt study.Options) *bench {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return &bench{w: w, seed: opt.Seed, opts: []study.Options{opt}}
}

// TestWorldRepDigestStableAndTraceNeutral checks that repetitions of one
// seed agree exactly, and that slicing the run into RunUntil steps and
// timing every Observe changes nothing the program outputs.
func TestWorldRepDigestStableAndTraceNeutral(t *testing.T) {
	for name, opt := range map[string]study.Options{
		"panel":    {Seed: 3, MaxUsers: 3, ClipCap: 2},
		"openloop": {Seed: 3, MaxUsers: 8, ClipCap: 1, Workload: "poisson", Arrivals: 12},
	} {
		t.Run(name, func(t *testing.T) {
			b := smallBench(t, name, opt)
			s1, errs := b.worldsRep(nil)
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			s2, errs := b.worldsRep(nil)
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			if s1.counts != s2.counts {
				t.Fatalf("repetitions differ:\n%+v\n%+v", s1.counts, s2.counts)
			}
			if s1.counts.Records == 0 || s1.counts.Sent == 0 {
				t.Fatalf("empty run: %+v", s1.counts)
			}
			b.ref, b.limits = &s1.counts, s1.limits
			tr := newTracer()
			ts, errs := b.worldsRep(tr)
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			if ts.counts != s1.counts {
				t.Errorf("traced run differs:\n%+v\n%+v", ts.counts, s1.counts)
			}
			if n := len(tr.spanDurations("RunUntil")); n == 0 {
				t.Errorf("traced run was not sliced")
			}
			if len(tr.observe) != s1.counts.Records {
				t.Errorf("timed %d Observe calls, want %d", len(tr.observe), s1.counts.Records)
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json and
// the metrics and workloads this program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i := range min(len(spec.Workloads), len(workloads)) {
		if got, want := spec.Workloads[i], workloads[i]; got.Name != want.name || got.Why != want.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), program %q (%s)", i, got.Name, got.Why, want.name, want.why)
		}
	}
	check := func(group string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", group, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", group, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestWarmforkReplayMatchesSweep checks that the traced replay of a
// warm-fork sweep, built from public calls, reproduces campaign.RunWarmForks
// exactly: the same records from every fork and the same snapshot size.
func TestWarmforkReplayMatchesSweep(t *testing.T) {
	b := smallBench(t, "warmfork", study.Options{Seed: 3, MaxUsers: 8, ClipCap: 1, Workload: "poisson", Arrivals: 12, WorkloadSeed: 8})
	if err := b.calibrateWarmfork(); err != nil {
		t.Fatal(err)
	}
	s, errs := b.warmforkRep(nil)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if len(errs) != len(warmForks()) || s.counts.Snapshot == 0 || s.counts.Records == 0 {
		t.Fatalf("sweep: %d operations, counts %+v", len(errs), s.counts)
	}
	tr := newTracer()
	ts, errs := b.warmforkRep(tr)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if ts.counts != s.counts {
		t.Errorf("replay differs from the sweep:\n%+v\n%+v", ts.counts, s.counts)
	}
	if n := len(tr.spanDurations("Resume")); n != len(warmForks()) {
		t.Errorf("%d Resume spans, want one per fork", n)
	}
}
