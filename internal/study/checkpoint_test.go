package study

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"realtracer/internal/trace"
)

func recordsBytes(t *testing.T, recs []*trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointAt drives a fresh world for opt to the cut instant and
// snapshots it.
func checkpointAt(t *testing.T, opt Options, cut time.Duration) []byte {
	t.Helper()
	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunUntil(cut); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := w.Checkpoint(&snap); err != nil {
		t.Fatalf("checkpoint at %v: %v", cut, err)
	}
	return snap.Bytes()
}

func resumeAndRun(t *testing.T, snap []byte, fork *Fork) *Result {
	t.Helper()
	w, err := Resume(bytes.NewReader(snap), fork)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatalf("run after resume: %v", err)
	}
	return res
}

// requireRecheckpointIdentical is the codec-completeness property: a world
// resumed from snap and checkpointed again before running must reproduce
// snap byte for byte. A field the layout drops or reorders breaks it even
// when the resumed run happens not to depend on that field.
func requireRecheckpointIdentical(t *testing.T, snap []byte) {
	t.Helper()
	w, err := Resume(bytes.NewReader(snap), nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	var again bytes.Buffer
	if err := w.Checkpoint(&again); err != nil {
		t.Fatalf("re-checkpoint: %v", err)
	}
	if !bytes.Equal(again.Bytes(), snap) {
		n := 0
		for n < len(snap) && n < again.Len() && snap[n] == again.Bytes()[n] {
			n++
		}
		t.Fatalf("re-checkpoint of a resumed world differs from its snapshot at byte %d (%d vs %d bytes)",
			n, again.Len(), len(snap))
	}
}

// checkpointResumeArm is one arm of the determinism fence: checkpoint a
// run of opt at several mid-run instants, resume each snapshot, and
// require the completed record stream byte-identical to the
// straight-through run of the same seed.
func checkpointResumeArm(t *testing.T, opt Options) {
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(straight.Records) == 0 {
		t.Fatal("straight-through run produced no records")
	}
	want := recordsBytes(t, straight.Records)
	for _, frac := range checkpointCuts {
		frac := frac
		t.Run(fmt.Sprintf("cut%02.0f", frac*100), func(t *testing.T) {
			cut := time.Duration(float64(straight.SimDuration) * frac)
			snap := checkpointAt(t, opt, cut)
			requireRecheckpointIdentical(t, snap)
			res := resumeAndRun(t, snap, nil)
			got := recordsBytes(t, res.Records)
			if !bytes.Equal(got, want) {
				t.Fatalf("records after resume from %v differ from straight-through run (%d vs %d records)",
					cut, len(res.Records), len(straight.Records))
			}
		})
	}
}

// checkpointArms are the world shapes the checkpoint fences cover.
var checkpointArms = []struct {
	name string
	opt  Options
}{
	{"panel", Options{Seed: 11, MaxUsers: 6, ClipCap: 2}},
	// The open-loop churn arm: arrivals, departures and balks mid-flight,
	// plus a stateful selection policy rotating through the mirrors.
	{"openloop", Options{
		Seed: 17, MaxUsers: 8, ClipCap: 2,
		Workload: "poisson", Arrivals: 24, WorkloadIntensity: 2,
		Selection: "roundrobin",
	}},
	{"dynamics", Options{
		Seed: 5, MaxUsers: 4, ClipCap: 2,
		Dynamics: "lossburst", DynamicsIntensity: 2,
	}},
	// Heavy churn over a small pool: sessions tear down with segments
	// still mid-flight, so cuts land on wire copies whose owning conn is
	// closed (or gone from the snapshot entirely) — those serialize by
	// value, not by reference.
	{"churnheavy", Options{
		Seed: 17, MaxUsers: 6, ClipCap: 2,
		Workload: "poisson", Arrivals: 64, WorkloadIntensity: 2,
	}},
}

// checkpointCuts are the mid-run instants, as fractions of the
// straight-through run's simulated duration, at which the fences cut.
var checkpointCuts = []float64{0.25, 0.55, 0.85}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, arm := range checkpointArms {
		arm := arm
		t.Run(arm.name, func(t *testing.T) { checkpointResumeArm(t, arm.opt) })
	}
}

// TestForkDeterministicAndDivergent pins the fork contract: the same named
// fork of one snapshot reproduces itself byte-for-byte, and differently
// named forks diverge from each other.
func TestForkDeterministicAndDivergent(t *testing.T) {
	opt := Options{
		Seed: 17, MaxUsers: 8, ClipCap: 2,
		Workload: "poisson", Arrivals: 20, WorkloadIntensity: 2,
	}
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := checkpointAt(t, opt, straight.SimDuration/2)

	a1 := recordsBytes(t, resumeAndRun(t, snap, &Fork{Name: "a"}).Records)
	a2 := recordsBytes(t, resumeAndRun(t, snap, &Fork{Name: "a"}).Records)
	b := recordsBytes(t, resumeAndRun(t, snap, &Fork{Name: "b"}).Records)
	if !bytes.Equal(a1, a2) {
		t.Fatal("the same named fork is not deterministic")
	}
	if bytes.Equal(a1, b) {
		t.Fatal("differently named forks did not diverge")
	}
}

// TestForkScenarioDeltas forks one warm snapshot into divergent scenarios
// (changed dynamics, changed intensity) and requires each to complete.
func TestForkScenarioDeltas(t *testing.T) {
	opt := Options{
		Seed: 9, MaxUsers: 6, ClipCap: 2,
		Workload: "poisson", Arrivals: 16,
	}
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := checkpointAt(t, opt, straight.SimDuration/2)

	dyn := "lossburst"
	k := 2.0
	for _, fork := range []*Fork{
		{Name: "weather", Dynamics: &dyn, DynamicsIntensity: &k},
		{Name: "hot", WorkloadIntensity: &k},
	} {
		res := resumeAndRun(t, snap, fork)
		if len(res.Records) == 0 {
			t.Fatalf("fork %s produced no records", fork.Name)
		}
	}
}

// TestResumeRejectsCorruptSnapshot pins the loud-failure contract for a
// snapshot whose options section was tampered with (a stand-in for a
// mismatched build).
func TestResumeRejectsCorruptSnapshot(t *testing.T) {
	opt := Options{Seed: 11, MaxUsers: 3, ClipCap: 1}
	straight, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := checkpointAt(t, opt, straight.SimDuration/2)

	bad := append([]byte(nil), snap...)
	bad[len(snapMagic)+8] ^= 0xff // inside the options block
	if _, err := Resume(bytes.NewReader(bad), nil); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("want options hash mismatch error, got %v", err)
	}

	if _, err := Resume(bytes.NewReader([]byte("not a snapshot")), nil); err == nil {
		t.Fatal("want error resuming junk bytes")
	}
}

// TestCheckpointRejectsUnsupportedWorlds pins the two hard preconditions:
// a streaming sink has already let records go, and a sharded world's state
// is spread across goroutines.
func TestCheckpointRejectsUnsupportedWorlds(t *testing.T) {
	w, err := NewWorld(Options{Seed: 1, MaxUsers: 2, ClipCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.SetSink(trace.SinkFunc(func(*trace.Record) {}))
	if err := w.Checkpoint(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "collector") {
		t.Fatalf("want collector-sink error, got %v", err)
	}

	sw, err := NewWorld(Options{Seed: 1, MaxUsers: 8, ClipCap: 1, Workload: "poisson", Arrivals: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Checkpoint(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("want sharded-world error, got %v", err)
	}
}
