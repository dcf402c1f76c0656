package campaign

import (
	"bytes"
	"runtime"
	"testing"

	"realtracer/internal/figures"
	"realtracer/internal/study"
	"realtracer/internal/trace"
)

// quickBase is a small study (4 users, 3 clips) so tests stay fast.
func quickBase(seed int64) study.Options {
	return study.Options{Seed: seed, MaxUsers: 4, ClipCap: 3}
}

// mixedScenarios is a representative campaign: seed replicas plus ablation
// points, including one scenario with Seed == 0 to exercise derivation.
func mixedScenarios() []Scenario {
	scs := SeedReplicas(quickBase(0), 21, 3)
	scs = append(scs, FECSweep(quickBase(7))...)
	derived := quickBase(0) // Seed 0: derived from BaseSeed + name
	scs = append(scs, Scenario{Name: "derived-seed", Options: derived})
	return scs
}

// csvBytes serializes a scenario's records so runs can be compared
// byte-for-byte.
func csvBytes(t *testing.T, res *study.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignDeterministicAcrossWorkers is the core guarantee: the same
// scenario set run serially and run across every core must produce
// byte-identical per-scenario records — the per-seed reproducibility
// contract survives the worker pool.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	scs := mixedScenarios()
	cfg := Config{BaseSeed: 5}

	serialCfg := cfg
	serialCfg.Workers = 1
	serial := Run(scs, serialCfg)

	parallelCfg := cfg
	// At least 4 workers even on small machines: concurrent goroutines
	// interleave either way, which is exactly what must not perturb records.
	parallelCfg.Workers = runtime.NumCPU()
	if parallelCfg.Workers < 4 {
		parallelCfg.Workers = 4
	}
	parallel := Run(scs, parallelCfg)

	if err := serial.Err(); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Err(); err != nil {
		t.Fatal(err)
	}
	if len(serial.Results) != len(scs) || len(parallel.Results) != len(scs) {
		t.Fatalf("result counts %d/%d, want %d", len(serial.Results), len(parallel.Results), len(scs))
	}
	for i := range scs {
		s, p := serial.Results[i], parallel.Results[i]
		if s.Scenario.Name != scs[i].Name || p.Scenario.Name != scs[i].Name {
			t.Fatalf("result %d out of order: serial %q parallel %q want %q",
				i, s.Scenario.Name, p.Scenario.Name, scs[i].Name)
		}
		if s.Scenario.Options.Seed != p.Scenario.Options.Seed {
			t.Fatalf("scenario %s: derived seeds differ: %d vs %d",
				scs[i].Name, s.Scenario.Options.Seed, p.Scenario.Options.Seed)
		}
		if !bytes.Equal(csvBytes(t, s.Result), csvBytes(t, p.Result)) {
			t.Fatalf("scenario %s: records differ between workers=1 and workers=%d",
				scs[i].Name, parallelCfg.Workers)
		}
		if s.Result.Events != p.Result.Events {
			t.Fatalf("scenario %s: event counts differ: %d vs %d",
				scs[i].Name, s.Result.Events, p.Result.Events)
		}
	}
}

// renderMerged merges a streamed campaign's per-scenario aggregate partials
// in input order and renders every figure from the merged build.
func renderMerged(t *testing.T, sum *Summary) []byte {
	t.Helper()
	merged := figures.NewAggregates()
	for _, r := range sum.Results {
		part, ok := r.Sink.(*figures.Aggregates)
		if !ok {
			t.Fatalf("scenario %s carries no aggregate sink", r.Scenario.Name)
		}
		if r.Result.Records != nil {
			t.Fatalf("scenario %s retained records in streaming mode", r.Scenario.Name)
		}
		merged.Merge(part)
	}
	var buf bytes.Buffer
	for _, g := range figures.All() {
		g.Agg(merged).Render(&buf)
	}
	return buf.Bytes()
}

// TestCampaignStreamedAggregatesDeterministic extends the determinism
// guarantee to the streaming pipeline: per-scenario partial aggregates,
// merged in input order, must be identical whether the campaign ran on one
// worker or on every core — and identical to aggregating the batch-mode
// records.
func TestCampaignStreamedAggregatesDeterministic(t *testing.T) {
	scs := mixedScenarios()
	newSink := func() trace.Sink { return figures.NewAggregates() }

	serialCfg := Config{BaseSeed: 5, Workers: 1, NewSink: newSink}
	serial := Run(scs, serialCfg)
	if err := serial.Err(); err != nil {
		t.Fatal(err)
	}

	parallelCfg := Config{BaseSeed: 5, Workers: runtime.NumCPU(), NewSink: newSink}
	if parallelCfg.Workers < 4 {
		parallelCfg.Workers = 4
	}
	parallel := Run(scs, parallelCfg)
	if err := parallel.Err(); err != nil {
		t.Fatal(err)
	}

	serialOut := renderMerged(t, serial)
	if !bytes.Equal(serialOut, renderMerged(t, parallel)) {
		t.Fatal("streamed aggregates differ between workers=1 and the full pool")
	}

	// Batch mode over the same scenarios must aggregate to the same figures.
	batch := Run(scs, Config{BaseSeed: 5, Workers: 1})
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	merged := figures.NewAggregates()
	for _, r := range batch.Results {
		for _, rec := range r.Result.Records {
			merged.Observe(rec)
		}
	}
	var buf bytes.Buffer
	for _, g := range figures.All() {
		g.Agg(merged).Render(&buf)
	}
	if !bytes.Equal(serialOut, buf.Bytes()) {
		t.Fatal("streamed aggregates differ from batch-mode aggregation")
	}
}

// TestCampaignParallelSpeedup checks the engine's reason to exist: with
// more than one core, a multi-scenario campaign on a full pool must beat
// the serial baseline. Skipped under -short and on single-core machines.
func TestCampaignParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Two shared vCPUs on a loaded CI runner can't reliably hit the 1.2x
	// bar; only assert the speedup where parallelism has real headroom.
	if runtime.NumCPU() < 4 {
		t.Skip("needs >= 4 cores for a robust wall-clock assertion")
	}
	scs := SeedReplicas(study.Options{MaxUsers: 8, ClipCap: 5}, 31, 8)
	serial := Run(scs, Config{Workers: 1})
	parallel := Run(scs, Config{Workers: runtime.NumCPU()})
	if err := serial.Err(); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("serial %v, parallel %v on %d cores", serial.Elapsed, parallel.Elapsed, runtime.NumCPU())
	// Demand only a conservative win (>=1.2x) so the test stays robust on
	// loaded CI machines; real speedups track core count.
	if parallel.Elapsed > serial.Elapsed*5/6 {
		t.Errorf("parallel campaign (%v) not measurably faster than serial (%v)",
			parallel.Elapsed, serial.Elapsed)
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(1, "fec-on")
	if a == 0 {
		t.Fatal("derived seed is zero")
	}
	if a != DeriveSeed(1, "fec-on") {
		t.Fatal("derivation not stable")
	}
	if a == DeriveSeed(1, "fec-off") {
		t.Fatal("different names derived the same seed")
	}
	if a == DeriveSeed(2, "fec-on") {
		t.Fatal("different base seeds derived the same seed")
	}
}

func TestDerivedSeedAppliedOnce(t *testing.T) {
	scs := []Scenario{{Name: "only", Options: quickBase(0)}}
	sum := Run(scs, Config{Workers: 1, BaseSeed: 9})
	if err := sum.Err(); err != nil {
		t.Fatal(err)
	}
	want := DeriveSeed(9, "only")
	if got := sum.Results[0].Scenario.Options.Seed; got != want {
		t.Fatalf("derived seed %d, want %d", got, want)
	}
	// Explicit seeds pass through untouched.
	sum = Run([]Scenario{{Name: "explicit", Options: quickBase(42)}}, Config{Workers: 1, BaseSeed: 9})
	if got := sum.Results[0].Scenario.Options.Seed; got != 42 {
		t.Fatalf("explicit seed rewritten to %d", got)
	}
}

func TestSweepRegistry(t *testing.T) {
	all := Sweeps()
	if len(all) < 6 {
		t.Fatalf("only %d sweeps registered", len(all))
	}
	for _, sw := range all {
		scs := sw.Scenarios(ReducedBase(9))
		if len(scs) < 2 {
			t.Errorf("sweep %s builds %d scenarios, want >= 2", sw.Name, len(scs))
		}
		seen := map[string]bool{}
		for _, sc := range scs {
			if sc.Name == "" {
				t.Errorf("sweep %s has an unnamed scenario", sw.Name)
			}
			if seen[sc.Name] {
				t.Errorf("sweep %s repeats scenario name %s", sw.Name, sc.Name)
			}
			seen[sc.Name] = true
		}
		if _, ok := SweepByName(sw.Name); !ok {
			t.Errorf("sweep %s not resolvable by name", sw.Name)
		}
	}
	if _, ok := SweepByName("no-such-sweep"); ok {
		t.Error("unknown sweep resolved")
	}
}

func TestSummaryHelpers(t *testing.T) {
	scs := SeedReplicas(quickBase(0), 51, 2)
	sum := Run(scs, Config{Workers: 2})
	if err := sum.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range sum.Results {
		if len(r.Result.Records) == 0 {
			t.Fatalf("scenario %s retained no records", r.Scenario.Name)
		}
	}
	if sum.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", sum.Workers)
	}
	if sum.Elapsed <= 0 {
		t.Fatal("campaign elapsed time not recorded")
	}
	for _, r := range sum.Results {
		if r.Elapsed <= 0 {
			t.Fatalf("scenario %s elapsed time not recorded", r.Scenario.Name)
		}
	}
}
