package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"realtracer/internal/study"
)

// Checkpoint/resume flag plumbing. -checkpoint FILE -warmup DUR runs the
// study to the warm-up instant, snapshots the warm world to FILE, then
// continues to completion — so the run both produces its normal output and
// leaves a reusable warm-start artifact. -resume FILE replays a snapshot's
// own options to completion; the record stream is byte-identical to the
// straight-through run that wrote it.

// checkpointFlagError validates the checkpoint/resume flag cluster against
// the rest of the command line, mirroring the dependent-flag rule: a flag
// that positions or overrides another is a hard error without its
// governing flag, never a silent no-op. Returns "" when the combination is
// legal.
func checkpointFlagError(set map[string]bool) string {
	if set["warmup"] && !set["checkpoint"] {
		return "-warmup positions the snapshot instant of a checkpoint run; give -checkpoint FILE"
	}
	if set["checkpoint"] && !set["warmup"] {
		return "-checkpoint needs its snapshot instant; give -warmup DUR (e.g. -warmup 10m of simulated time)"
	}
	if set["checkpoint"] && set["resume"] {
		return "-checkpoint and -resume are incompatible: one run either writes a snapshot or replays one"
	}
	if set["resume"] {
		// The snapshot carries its own Options (version-stamped by hash);
		// a world-shaping flag alongside -resume would silently disagree
		// with them.
		for _, dep := range []string{"seed", "users", "clips", "dynamics", "intensity", "workload", "load", "arrivals", "selection", "shards"} {
			if set[dep] {
				return fmt.Sprintf("-%s would override the snapshot's own options; -resume replays them exactly (fork via the campaign API instead)", dep)
			}
		}
		for _, mode := range []string{"sweep", "timeline"} {
			if set[mode] {
				return fmt.Sprintf("-resume is incompatible with -%s: a snapshot replays one study", mode)
			}
		}
	}
	if set["checkpoint"] {
		if set["shards"] {
			return "-checkpoint cannot snapshot a sharded world; drop -shards"
		}
		for _, mode := range []string{"sweep", "timeline"} {
			if set[mode] {
				return fmt.Sprintf("-checkpoint is incompatible with -%s: a snapshot captures one full study world", mode)
			}
		}
	}
	return ""
}

// runWithCheckpoint drives one study to the warm-up instant, writes the
// snapshot to file and reports it on w, then continues the same world to
// completion.
func runWithCheckpoint(w io.Writer, opts study.Options, file string, warmup time.Duration) (*study.Result, error) {
	if warmup <= 0 {
		return nil, fmt.Errorf("-warmup must be positive simulated time, got %v", warmup)
	}
	world, err := study.NewWorld(opts)
	if err != nil {
		return nil, err
	}
	if err := world.RunUntil(warmup); err != nil {
		return nil, err
	}
	f, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	if err := world.Checkpoint(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint at %v: %w", warmup, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "checkpoint: warm state at %v written to %s (resume with -resume %s)\n", warmup, file, file)
	return world.Run()
}

// runResumed replays a snapshot file to completion under the options it
// was checkpointed with.
func runResumed(file string) (*study.Result, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w, err := study.Resume(f, nil)
	if err != nil {
		return nil, fmt.Errorf("resume %s: %w", file, err)
	}
	return w.Run()
}
