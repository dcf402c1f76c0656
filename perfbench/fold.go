package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// cpuLayers are the repository packages that get their own cpu.<layer>
// share. Samples charged to another repository package count as
// cpu.other; samples with no repository frame at all (GC workers, the
// scheduler, the benchmark's own bookkeeping) count as cpu.gc.
var cpuLayers = []string{"simclock", "netsim", "transport", "server", "player", "media", "rdt", "study", "figures"}

const repoPrefix = "realtracer/internal/"

// profileShares folds a CPU profile into per-layer shares by running the
// toolchain's pprof in -traces mode and parsing its text.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return foldTraces(bytes.NewReader(out))
}

// foldTraces parses `go tool pprof -traces` output: blocks separated by
// "-----------+---" lines, each a sample value followed by its stack,
// innermost frame first. Each block's value is charged to its innermost
// realtracer/internal/<pkg> frame, so runtime work (map operations,
// allocation, write barriers) lands on the layer that caused it. The
// result maps "cpu.<layer>" to its share of all sampled time; every layer,
// "cpu.other" and "cpu.gc" are present.
func foldTraces(r io.Reader) (map[string]float64, error) {
	byLayer := map[string]float64{}
	var total float64
	inBlock, haveValue := false, false
	var value float64
	charged := false
	flush := func() {
		if haveValue && !charged {
			byLayer["gc"] += value
		}
		haveValue, charged = false, false
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // header, blank or label line
		}
		frame := strings.Join(fields, " ")
		if !haveValue {
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, fmt.Errorf("trace block: %w", err)
			}
			value, haveValue = v, true
			total += v
			frame = strings.Join(fields[1:], " ")
		}
		if !charged {
			if layer, ok := repoLayer(frame); ok {
				byLayer[layer] += value
				charged = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	out := map[string]float64{"cpu.other": 0, "cpu.gc": 0}
	for _, l := range cpuLayers {
		out["cpu."+l] = 0
	}
	for l, v := range byLayer {
		out["cpu."+l] = v / total
	}
	return out, nil
}

// repoLayer maps a frame's function name to its layer: the package under
// realtracer/internal/, or "other" for a package without its own share.
func repoLayer(frame string) (string, bool) {
	rest, ok := strings.CutPrefix(frame, repoPrefix)
	if !ok {
		return "", false
	}
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	for _, l := range cpuLayers {
		if l == pkg {
			return l, true
		}
	}
	return "other", true
}

// sampleUnits are the duration suffixes pprof prints, in nanoseconds.
var sampleUnits = map[string]float64{
	"ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9,
	"min": 60e9, "mins": 60e9, "hr": 3600e9, "hrs": 3600e9,
}

// parseSampleValue parses a pprof duration such as "10ms" or "1.20s" into
// nanoseconds.
func parseSampleValue(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i <= 0 {
		return 0, fmt.Errorf("sample value %q has no number and unit", s)
	}
	scale, ok := sampleUnits[s[i:]]
	if !ok {
		return 0, fmt.Errorf("sample value %q has unknown unit", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("sample value %q: %w", s, err)
	}
	return v * scale, nil
}
