package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestFoldTracesChargesInnermostRepoFrame(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	// Samples: 10ms GC worker, 300ms map access under server pacing, 250ms
	// write barrier under a simclock call inside transport, 200ms RNG
	// (detrand has no share of its own) under player, 150ms benchmark
	// code under figures, 90ms idle runtime: 1000ms in all.
	want := map[string]float64{
		"cpu.server":    0.30,
		"cpu.simclock":  0.25,
		"cpu.other":     0.20,
		"cpu.figures":   0.15,
		"cpu.gc":        0.10,
		"cpu.netsim":    0,
		"cpu.transport": 0,
		"cpu.player":    0,
		"cpu.media":     0,
		"cpu.rdt":       0,
		"cpu.study":     0,
	}
	if len(got) != len(want) {
		t.Errorf("got %d shares %v, want %d", len(got), got, len(want))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
}

func TestFoldTracesRejectsBadInput(t *testing.T) {
	for name, in := range map[string]string{
		"empty":        "File: x\nType: cpu\n",
		"unknown unit": "-----------+---\n      10xs   runtime.main\n",
		"no number":    "-----------+---\n      ms   runtime.main\n",
	} {
		if _, err := foldTraces(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestParseSampleValue(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 1e7, "1.5s": 1.5e9, "250us": 2.5e5, "2mins": 120e9, "7ns": 7} {
		got, err := parseSampleValue(in)
		if err != nil || got != want {
			t.Errorf("parseSampleValue(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}
