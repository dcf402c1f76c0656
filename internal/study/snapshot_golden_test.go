package study

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateSnapshotGolden = flag.Bool("update", false, "rewrite the golden snapshot digests")

// TestSnapshotGolden pins the checkpoint format: the length and SHA-256 of
// World.Checkpoint for every checkpoint fence arm at every cut instant must
// match the committed digests. Any codec change that moves a byte fails
// here, even when the resumed run would still complete identically.
// Regenerate deliberately (a format change also bumps snapMagic) with:
//
//	go test ./internal/study -run TestSnapshotGolden -update
func TestSnapshotGolden(t *testing.T) {
	var got bytes.Buffer
	for _, arm := range checkpointArms {
		straight, err := Run(arm.opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range checkpointCuts {
			cut := time.Duration(float64(straight.SimDuration) * frac)
			snap := checkpointAt(t, arm.opt, cut)
			fmt.Fprintf(&got, "%s cut%02.0f %d %x\n", arm.name, frac*100, len(snap), sha256.Sum256(snap))
		}
	}
	path := filepath.Join("testdata", "snapshot_golden.txt")
	if *updateSnapshotGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden digests (run with -update to create): %v", err)
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("got %d digest lines, golden holds %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("snapshot format changed:\n got: %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}
