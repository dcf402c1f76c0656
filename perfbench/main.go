// Command perfbench is realtracer's benchmark. One invocation runs one
// named workload for a fixed wall-clock budget, checks every output, and
// prints each metric by name with its unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload panel --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module (its go.mod points at the repository root)
// with every cache under .bench_build/ and passes its arguments through.
// From this directory, `go run . --workload openloop` works too. --seed n
// gives world i of a repetition the study seed n*worlds+i+1: n+1 on the
// one-world workloads, 4n+1 to 4n+4 on panel. It is never 0, which means
// "derive one" to the campaign layer.
//
// With --trace 0 the workload repeats until --seconds have passed, each
// repetition building fresh worlds (each build timed for setup_s) and
// running them (run_cpu_s, and run_s in wall time); the JSON line carries
// the medians of the end-to-end metrics.
// With --trace 1 half the budget goes to untraced repetitions and then one
// traced repetition runs under a CPU profile, with spans recorded around
// every public call the benchmark makes (NewWorld, fixed one-minute
// virtual-time RunUntil slices, every aggregate Observe, the figure build,
// Checkpoint and each fork's Resume). The spans go to
// .bench_build/spans-<workload>-<seed>.json; the JSON line carries the
// per-layer metrics. The traced repetition must reproduce the untraced
// record digest and exact counts.
//
// Each repetition's record stream is hashed, and every repetition at one
// seed must give the same digest and exact counts; on the classic engine
// Network.Stats must conserve packets (sent = delivered + dropped + still
// in flight). A failed check, returned error or stall counts as a failed
// operation in the result's attempted/failed pair (error_rate); nothing is
// retried.
//
// The workloads:
//
//   - panel: the paper's closed-loop study, 63 users each playing the
//     first 12 clips of the playlist, records streamed into
//     figures.Aggregates, then all 24 figures built; four such studies at
//     four seeds per repetition, ~2.8k records in all. It is the
//     golden-pinned path, has no churn and carries the largest share of
//     packet and timer work. One uncapped study would do the same work,
//     but its event count moves ±17% with the seed.
//   - openloop: Poisson arrivals (1,000) over a 256-template pool, two
//     clips each, on the classic engine. Same packet layers as panel plus
//     session churn, so lifecycle cost separates from packet cost.
//   - sharded: openloop's options at Shards 2, the only workload that runs
//     netsim.Fabric. Once per invocation, outside timing, its records are
//     checked against the same options at Shards 1.
//   - warmfork: openloop's options as the base of campaign.RunWarmForks
//     with one worker, cut at 90% of a horizon calibrated outside timing,
//     and eight forks (control, five weather profiles, AIMD, leastloaded).
//     The only workload that runs the checkpoint codecs and the network
//     dynamics layer.
//
// The benchmark drives the program only through public entry points and
// counters; nothing inside the program is instrumented. No workload runs
// more goroutines than two (sharded's two shard workers).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the simulator sees; --trace 0 reports
// them. error_rate is the result line's failed/attempted pair. Run time is
// the CPU time (user plus system, every thread) the process spends in the
// run: on a shared virtual machine the hypervisor steals up to 40% of wall
// time in phases lasting minutes, which moves wall time between
// invocations far more than any change under test would.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_cpu_s", "s"},
	{"records_per_cpu_s", "1/s"},
	{"allocs_per_record", "count"},
}

// wallMetrics are the wall-clock forms of the run metrics. They are
// printed with the others but left out of the result line.
var wallMetrics = []metricDef{
	{"run_s", "s"},
	{"records_per_s", "1/s"},
}

// perLayerMetrics split a run by layer; --trace 1 reports them. A metric
// that does not apply to a workload (snapshot.* off warmfork, say) reads 0.
var perLayerMetrics = []metricDef{
	{"heap.peak_mb", "MB"},
	{"simclock.events_per_record", "count"},
	{"simclock.ns_per_event", "ns"},
	{"simclock.pending_max", "count"},
	{"netsim.packets_per_record", "count"},
	{"netsim.drop_ratio", "ratio"},
	{"fabric.shard_imbalance", "ratio"},
	{"workload.sessions", "count"},
	{"workload.balked", "count"},
	{"workload.departed", "count"},
	{"server.played", "count"},
	{"server.torndown", "count"},
	{"figures.observe_ns", "ns"},
	{"figures.build_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.resume_ms", "ms"},
	{"snapshot.share", "ratio"},
	{"campaign.prefix_ms", "ms"},
	{"campaign.fork_ms", "ms"},
	{"cpu.simclock", "share"},
	{"cpu.netsim", "share"},
	{"cpu.transport", "share"},
	{"cpu.server", "share"},
	{"cpu.player", "share"},
	{"cpu.media", "share"},
	{"cpu.rdt", "share"},
	{"cpu.study", "share"},
	{"cpu.figures", "share"},
	{"cpu.other", "share"},
	{"cpu.gc", "share"},
	{"trace.overhead", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: panel, openloop, sharded or warmfork")
	seed := fs.Int64("seed", 1, "workload seed (>= 0)")
	secs := fs.Int("seconds", 20, "wall-clock budget for the repetitions")
	traceFlag := fs.Int("trace", 0, "1: add a traced repetition and report per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for the CPU profile and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seed < 0 || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload panel|openloop|sharded|warmfork, --seed >= 0, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := newBench(w, *seed)
	vals, samples, err := b.measure(time.Duration(*secs)*time.Second, *traceFlag == 1, *outDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, e := range b.t.errs {
		fmt.Fprintf(stderr, "perfbench: failed operation: %s\n", e)
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d operations, %d failed", w.name, *seed, b.t.attempted, b.t.failed)
	if b.ref != nil {
		fmt.Fprintf(stdout, "; %d records, %d events, %v simulated", b.ref.Records, b.ref.Events, b.ref.SimDuration)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "%-28s %14.6g %s\n", "error_rate", b.t.errorRate(), "ratio")
	fmt.Fprintf(stdout, "run_s of %d untraced repetitions (CPU, live heap MB):", len(samples))
	for _, s := range samples {
		fmt.Fprintf(stdout, " %.4g (%.4g, %.4g)", s.run.Seconds(), s.cpu.Seconds(), float64(s.peakHeap)/1e6)
	}
	fmt.Fprintln(stdout)
	reported := endToEndMetrics
	if *traceFlag == 1 {
		reported = perLayerMetrics
	}
	res := result{Correct: b.t.failed == 0, Attempted: b.t.attempted, Failed: b.t.failed, Metrics: map[string]metricValue{}}
	for _, group := range [][]metricDef{endToEndMetrics, wallMetrics, perLayerMetrics} {
		for _, m := range group {
			if v, ok := vals[m.name]; ok {
				fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	for _, m := range reported {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs the invocation: prepare, the untraced repetitions and, if
// traced, the traced one. Failed operations land in b.t; only a failure of
// the benchmark's own machinery (profile files, pprof) is returned.
func (b *bench) measure(budget time.Duration, traced bool, outDir string) (map[string]float64, []sample, error) {
	var samples []sample
	prepared := true
	if b.w.prepare != nil {
		prepared = b.w.prepare(b) == nil
	}
	if prepared {
		untraced := budget
		if traced {
			untraced = budget / 2
		}
		samples = repeat(untraced, &b.t, func() (sample, []error) { return b.w.rep(b, nil) })
		if len(samples) > 0 {
			b.ref, b.limits = &samples[0].counts, samples[0].limits
		}
	}
	vals := endToEnd(samples)
	if !traced || b.ref == nil { // with no clean repetition there is nothing to check a traced run against
		return vals, samples, nil
	}

	prof := filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d.pprof", b.w.name, b.seed))
	f, err := os.Create(prof)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("start CPU profile: %w", err)
	}
	tr := newTracer()
	ts, errs := b.w.rep(b, tr)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, nil, fmt.Errorf("write CPU profile: %w", err)
	}
	b.t.settle(ts, errs, b.ref) // counts that differ mean tracing changed the program
	if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", b.w.name, b.seed))); err != nil {
		return nil, nil, err
	}
	shares, err := profileShares(prof)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range b.perLayer(samples, ts, tr) {
		vals[k] = v
	}
	for k, v := range shares {
		vals[k] = v
	}
	return vals, samples, nil
}

// ratio is a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEnd computes the end-to-end medians over the untraced samples.
func endToEnd(ss []sample) map[string]float64 {
	if len(ss) == 0 {
		return map[string]float64{}
	}
	recs := float64(ss[0].counts.Records)
	var setups []float64
	for _, s := range ss {
		for _, d := range s.setups {
			setups = append(setups, d.Seconds())
		}
	}
	return map[string]float64{
		"setup_s":           median(setups),
		"run_cpu_s":         medianOf(ss, func(s sample) float64 { return s.cpu.Seconds() }),
		"records_per_cpu_s": medianOf(ss, func(s sample) float64 { return ratio(recs, s.cpu.Seconds()) }),
		"run_s":             medianOf(ss, func(s sample) float64 { return s.run.Seconds() }),
		"records_per_s":     medianOf(ss, func(s sample) float64 { return ratio(recs, s.run.Seconds()) }),
		"allocs_per_record": ratio(medianOf(ss, func(s sample) float64 { return float64(s.allocs) }), recs),
	}
}

// shardImbalance is the busiest shard's events over the mean, for a
// two-shard world, from shard 0's count and the total.
func shardImbalance(shard0, total uint64) float64 {
	if total == 0 {
		return 0
	}
	busiest := max(shard0, total-shard0)
	return float64(busiest) / (float64(total) / 2)
}

// perLayer computes the per-layer metrics from the exact counts, the
// untraced samples and the traced repetition ts.
func (b *bench) perLayer(ss []sample, ts sample, tr *tracer) map[string]float64 {
	c := *b.ref
	recs := float64(c.Records)
	executed, played, torn := c.Events, c.Played, c.TornDown
	if tr.executed > 0 { // the warm-fork replay counted these itself
		executed, played, torn = tr.executed, tr.played, tr.tornDown
	}
	var peakHeap uint64
	for _, s := range ss {
		peakHeap = max(peakHeap, s.peakHeap)
	}
	v := map[string]float64{
		"heap.peak_mb":               float64(peakHeap) / 1e6,
		"simclock.events_per_record": ratio(float64(c.Events), recs),
		"simclock.ns_per_event":      ratio(medianOf(ss, func(s sample) float64 { return float64(s.cpu) }), float64(executed)),
		"simclock.pending_max":       float64(tr.pendingMax),
		"netsim.packets_per_record":  ratio(float64(c.Sent), recs),
		"netsim.drop_ratio":          ratio(float64(c.Dropped), float64(c.Sent)),
		"fabric.shard_imbalance":     0,
		"workload.sessions":          float64(c.Sessions),
		"workload.balked":            float64(c.Balked),
		"workload.departed":          float64(c.Departed),
		"server.played":              float64(played),
		"server.torndown":            float64(torn),
		"figures.observe_ns":         float64(tr.observeMedian()),
		"figures.build_ms":           medianOf(ss, func(s sample) float64 { return millis(s.figBuild) }) / float64(len(b.opts)),
		"snapshot.bytes":             float64(c.Snapshot),
		"campaign.prefix_ms":         medianOf(ss, func(s sample) float64 { return millis(s.prefix) }),
		"trace.overhead":             ratio(ts.run.Seconds(), medianOf(ss, func(s sample) float64 { return s.run.Seconds() })),
	}
	if b.opts[0].Shards == 2 {
		v["fabric.shard_imbalance"] = shardImbalance(c.Shard0Events, c.Events)
	}
	var forks []float64
	for _, s := range ss {
		for _, d := range s.forks {
			forks = append(forks, millis(d))
		}
	}
	v["campaign.fork_ms"] = median(forks)
	var encode, resumeSum float64
	var resumes []float64
	for _, d := range tr.spanDurations("Checkpoint") {
		encode += millis(d)
	}
	for _, d := range tr.spanDurations("Resume") {
		resumes = append(resumes, millis(d))
		resumeSum += millis(d)
	}
	v["snapshot.encode_ms"] = encode
	v["snapshot.resume_ms"] = median(resumes)
	v["snapshot.share"] = ratio(encode+resumeSum, millis(ts.run))
	return v
}
