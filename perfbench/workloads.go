package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"realtracer/internal/campaign"
	"realtracer/internal/core"
	"realtracer/internal/figures"
	"realtracer/internal/netsim"
	"realtracer/internal/simclock"
	"realtracer/internal/study"
	"realtracer/internal/trace"
)

// workload is one named input set. The functions take the bench, which
// holds the seed-derived options and the state prepare computed.
type workload struct {
	name, why string
	// worlds is how many independently seeded worlds one repetition runs;
	// options builds world i's options from its study seed.
	worlds  int
	options func(seed int64) study.Options
	// prepare runs once per invocation, outside timing: calibration and
	// cross-engine output checks. May be nil.
	prepare func(b *bench) error
	// rep is one repetition, its world builds and its run timed apart. It
	// returns one error slot per operation it ran: a world run or a fork.
	// With a tracer it records spans and must return the same counts.
	rep func(b *bench, tr *tracer) (sample, []error)
}

// Figure count core.AllFiguresAgg must return: Figures 5 to 28.
const paperFigures = 24

// A panel repetition runs the 63-user panel at panelWorlds seeds, each user
// playing the first panelClips clips of the playlist: about the records of
// one uncapped panel (~2.8k). One uncapped panel's event count moves by
// ±17% with the seed (its draw of playlist lengths and network paths);
// four capped studies average that out.
const (
	panelWorlds = 4
	panelClips  = 12
)

// openLoopOptions is the shared open-loop input: Poisson arrivals over a
// 256-template pool, two clips per session, on the classic engine.
func openLoopOptions(seed int64) study.Options {
	return study.Options{Seed: seed, MaxUsers: 256, ClipCap: 2, Workload: "poisson", Arrivals: 1000}
}

var workloads = []workload{
	{
		name:    "panel",
		why:     "the paper's closed 63-user study into all 24 figures, at four seeds per repetition: the golden-pinned path, no churn, the largest share of packet and timer work",
		worlds:  panelWorlds,
		options: func(seed int64) study.Options { return study.Options{Seed: seed, ClipCap: panelClips} },
		rep:     (*bench).worldsRep,
	},
	{
		name:    "openloop",
		why:     "Poisson arrivals on the classic engine: the packet layers of panel plus session churn (host add/remove, bundle recycling, teardown)",
		worlds:  1,
		options: openLoopOptions,
		rep:     (*bench).worldsRep,
	},
	{
		name:   "sharded",
		why:    "openloop's options on two shards: the only workload that runs netsim.Fabric (windows, outboxes, cross-shard packets)",
		worlds: 1,
		options: func(seed int64) study.Options {
			o := openLoopOptions(seed)
			o.Shards = 2
			return o
		},
		prepare: (*bench).prepareSharded,
		rep:     (*bench).worldsRep,
	},
	{
		name:   "warmfork",
		why:    "openloop's world checkpointed at 90% of its horizon and forked 8 ways: snapshot codecs, network dynamics and leastloaded selection",
		worlds: 1,
		options: func(seed int64) study.Options {
			o := openLoopOptions(seed)
			o.WorkloadSeed = seed + 5 // explicit, so RunWarmForks derives nothing
			return o
		},
		prepare: (*bench).calibrateWarmfork,
		rep:     (*bench).warmforkRep,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// bench is one invocation's state.
type bench struct {
	w    *workload
	seed int64
	opts []study.Options // one per world of a repetition
	hw   heapWatch
	t    tally

	// ref holds the exact counts every repetition must reproduce, and
	// limits each world's completion instant, once the first clean
	// repetition has set them.
	ref    *counts
	limits []time.Duration
	// shards1 is the record digest of opt at Shards 1 (sharded only).
	shards1 string
	// cut is the checkpoint instant, 90% of the calibrated horizon
	// (warmfork only).
	cut time.Duration
}

// newBench derives the invocation's world options from the seed: world i
// of a repetition runs study seed seed*worlds+i+1 (a zero study seed means
// "derive one" to the campaign layer).
func newBench(w *workload, seed int64) *bench {
	b := &bench{w: w, seed: seed}
	for i := range w.worlds {
		b.opts = append(b.opts, w.options(seed*int64(w.worlds)+int64(i)+1))
	}
	return b
}

// worldsRep runs every world of a repetition in turn and sums what they
// measured; each world run is one operation. It stops at the first
// failure.
func (b *bench) worldsRep(tr *tracer) (sample, []error) {
	var total sample
	var errs []error
	for i, opt := range b.opts {
		var limit time.Duration
		if i < len(b.limits) {
			limit = b.limits[i]
		}
		var sp int
		if tr != nil {
			sp = tr.begin("world")
		}
		s, err := b.worldRep(opt, limit, tr)
		if tr != nil {
			tr.end(sp, map[string]int64{"seed": opt.Seed})
		}
		total.add(s)
		if err != nil {
			return total, append(errs, fmt.Errorf("world seed %d: %w", opt.Seed, err))
		}
		errs = append(errs, nil)
	}
	return total, errs
}

// worldRep builds the world, streams its records into the figure
// aggregates and a digest, and runs it; on panel it also builds every
// figure. With a tracer the run is sliced into fixed virtual-time RunUntil
// steps that stop before limit, the world's completion instant (classic
// engine only), and every Observe is timed.
func (b *bench) worldRep(opt study.Options, limit time.Duration, tr *tracer) (sample, error) {
	var s sample
	var w *study.World
	var err error
	if tr != nil {
		t0 := time.Now()
		w, err = study.NewWorld(opt)
		s.setups = []time.Duration{time.Since(t0)}
		tr.record("NewWorld", t0, s.setups[0], nil)
	} else {
		w, s.setups, err = buildWorld(opt)
	}
	if err != nil {
		return s, fmt.Errorf("study.NewWorld: %w", err)
	}
	agg := figures.NewAggregates()
	dig := newDigestSink()
	if tr != nil {
		w.SetSink(tr.timingSink(agg, dig))
	} else {
		w.SetSink(trace.MultiSink{agg, dig})
	}
	panel := !opt.OpenLoop()

	a0 := allocCount()
	b.hw.start()
	c0 := cpuTime()
	t1 := time.Now()
	var res *study.Result
	if tr != nil {
		if opt.Shards > 0 {
			limit = 0 // a sharded world cannot be partially driven
		}
		res, err = tr.slicedRun(w, limit)
	} else {
		res, err = w.Run()
	}
	var figs []figures.Figure
	if panel && err == nil {
		t2 := time.Now()
		figs = core.AllFiguresAgg(agg)
		s.figBuild = time.Since(t2)
		if tr != nil {
			tr.record("AllFiguresAgg", t2, s.figBuild, nil)
		}
	}
	s.run = time.Since(t1)
	s.cpu = cpuTime() - c0
	s.peakHeap = b.hw.stop()
	s.allocs = allocCount() - a0
	runtime.KeepAlive(w)
	runtime.KeepAlive(agg)
	if err != nil {
		return s, fmt.Errorf("World.Run: %w", err)
	}

	s.limits = []time.Duration{res.SimDuration}
	c := &s.counts
	c.Records, c.Digest = dig.n, dig.sum()
	c.Events, c.SimDuration = res.Events, res.SimDuration
	c.Sessions, c.Balked, c.Departed = res.Sessions, res.Balked, res.Departed
	for _, srv := range w.Servers {
		_, _, played, torn := srv.Counters()
		c.Played += played
		c.TornDown += torn
	}
	if opt.Shards > 0 {
		// World.Net is shard 0's view only: no world-total packet count.
		c.Shard0Events = w.Clock.Fired()
	} else {
		c.Sent, c.Delivered, c.Dropped = w.Net.Stats()
		c.InFlight = inFlight(w.Clock)
	}
	if panel {
		c.FigureDigest = digestOf(figs)
	}
	return s, b.checkWorld(opt, s.counts, agg, len(figs))
}

// setupsPerRep is how many worlds a repetition builds to time setup_s:
// study.NewWorld takes milliseconds, so one timing per repetition would be
// mostly noise.
const setupsPerRep = 11

// buildWorld times setupsPerRep calls of study.NewWorld(opt) and returns
// the last world built.
func buildWorld(opt study.Options) (*study.World, []time.Duration, error) {
	var w *study.World
	setups := make([]time.Duration, 0, setupsPerRep)
	for range setupsPerRep {
		t0 := time.Now()
		var err error
		w, err = study.NewWorld(opt)
		if err != nil {
			return nil, setups, err
		}
		setups = append(setups, time.Since(t0))
	}
	return w, setups, nil
}

// checkWorld is the output check of one world run.
func (b *bench) checkWorld(opt study.Options, c counts, agg *figures.Aggregates, nfigs int) error {
	switch {
	case c.Records == 0:
		return fmt.Errorf("no records delivered")
	case agg.Total() != c.Records:
		return fmt.Errorf("aggregates observed %d records, sink saw %d", agg.Total(), c.Records)
	case opt.Shards == 0 && c.Sent != c.Delivered+c.Dropped+c.InFlight:
		return fmt.Errorf("network stats: sent %d != delivered %d + dropped %d + in flight %d", c.Sent, c.Delivered, c.Dropped, c.InFlight)
	case !opt.OpenLoop() && nfigs != paperFigures:
		return fmt.Errorf("built %d figures, want %d", nfigs, paperFigures)
	case opt.OpenLoop() && c.Sessions == 0:
		return fmt.Errorf("open loop launched no sessions")
	case b.shards1 != "" && c.Digest != b.shards1:
		return fmt.Errorf("record digest %.12s differs from the same options at Shards 1 (%.12s)", c.Digest, b.shards1)
	}
	return nil
}

// inFlight counts the packets still pending on clock: Run stops at
// completion, not at an empty queue, so a few packets outlive it.
func inFlight(clock *simclock.Clock) uint64 {
	var n uint64
	for _, p := range clock.Pendings() {
		if _, ok := p.Handler.(*netsim.Packet); ok {
			n++
		}
	}
	return n
}

// sliceWidth is the virtual-time length of one traced RunUntil slice.
const sliceWidth = time.Minute

// prepareSharded runs the same options at Shards 1, outside timing; every
// two-shard repetition must deliver the same record stream.
func (b *bench) prepareSharded() error {
	o := b.opts[0]
	o.Shards = 1
	dig := newDigestSink()
	w, err := study.NewWorld(o)
	if err == nil {
		w.SetSink(dig)
		_, err = w.Run()
	}
	if !b.t.op(err) {
		return fmt.Errorf("shards=1 reference run: %w", err)
	}
	b.shards1 = dig.sum()
	return nil
}

// calibrateWarmfork runs the base straight through once, outside timing,
// and cuts the checkpoint at 90% of its horizon.
func (b *bench) calibrateWarmfork() error {
	res, err := study.Run(b.opts[0])
	if !b.t.op(err) {
		return fmt.Errorf("warm-fork calibration: %w", err)
	}
	b.cut = res.SimDuration * 9 / 10
	return nil
}

// warmForks are the sweep's eight forks: a name-only control, the five
// weather profiles, the AIMD controller and leastloaded selection.
func warmForks() []study.Fork {
	forks := []study.Fork{{Name: "control"}}
	for _, p := range []string{"lossburst", "outage", "flashcrowd", "diurnal", "routeflap"} {
		forks = append(forks, study.Fork{Name: p, Dynamics: &p})
	}
	aimd, least := "aimd", "leastloaded"
	return append(forks,
		study.Fork{Name: aimd, Controller: &aimd},
		study.Fork{Name: least, Selection: &least})
}

// warmforkRep times one campaign.RunWarmForks sweep with one worker, or
// with a tracer replays it under spans. Each fork is one operation. setup
// is a separate study.NewWorld of the base, since RunWarmForks builds its
// world internally.
func (b *bench) warmforkRep(tr *tracer) (sample, []error) {
	if tr != nil {
		return b.warmforkTraced(tr)
	}
	var s sample
	_, setups, err := buildWorld(b.opts[0])
	s.setups = setups
	if err != nil {
		return s, []error{fmt.Errorf("study.NewWorld: %w", err)}
	}
	forks := warmForks()
	a0 := allocCount()
	b.hw.start()
	c0 := cpuTime()
	t1 := time.Now()
	res, err := campaign.RunWarmForks(b.opts[0], b.cut, forks, campaign.Config{Workers: 1})
	s.run = time.Since(t1)
	s.cpu = cpuTime() - c0
	s.peakHeap = b.hw.stop()
	s.allocs = allocCount() - a0
	if err != nil {
		return s, []error{fmt.Errorf("campaign.RunWarmForks: %w", err)}
	}
	errs := make([]error, len(res.Results))
	dig := newDigestSink()
	for i, r := range res.Results {
		if r.Err != nil {
			errs[i] = fmt.Errorf("fork %s: %w", r.Scenario.Name, r.Err)
			continue
		}
		for _, rec := range r.Result.Records {
			dig.Observe(rec)
		}
		s.counts.addFork(r.Result)
		s.forks = append(s.forks, r.Elapsed)
	}
	s.prefix = res.WarmupElapsed
	s.counts.Records, s.counts.Digest = dig.n, dig.sum()
	s.counts.Snapshot = res.SnapshotBytes
	return s, errs
}

// addFork sums one fork's result into the sweep's counts. Fork results
// carry the prefix too, so Events sums count it once per fork.
func (c *counts) addFork(r *study.Result) {
	c.Events += r.Events
	c.SimDuration += r.SimDuration
	c.Sessions += r.Sessions
	c.Balked += r.Balked
	c.Departed += r.Departed
}

// warmforkTraced replays what RunWarmForks does, from outside and under
// spans: build, run to the cut, checkpoint, then resume and run each fork.
// It must reproduce the untraced sweep's records and snapshot size
// exactly. The figure aggregates observe the fork records afterwards,
// outside the timed sweep.
func (b *bench) warmforkTraced(tr *tracer) (sample, []error) {
	var s sample
	t0 := time.Now()
	root := tr.begin("RunWarmForks")
	sp := tr.begin("NewWorld")
	w, err := study.NewWorld(b.opts[0])
	tr.end(sp, nil)
	s.setups = []time.Duration{time.Since(t0)}
	if err != nil {
		return s, []error{fmt.Errorf("study.NewWorld: %w", err)}
	}
	sp = tr.begin("RunUntil")
	if err := w.RunUntil(b.cut); err != nil {
		return s, []error{fmt.Errorf("World.RunUntil: %w", err)}
	}
	prefixFired := w.Clock.Fired()
	tr.end(sp, map[string]int64{"fired": int64(prefixFired), "pending": int64(w.Clock.Pending())})
	tr.pendingMax = w.Clock.Pending()
	var snap bytes.Buffer
	sp = tr.begin("Checkpoint")
	err = w.Checkpoint(&snap)
	tr.end(sp, map[string]int64{"bytes": int64(snap.Len())})
	if err != nil {
		return s, []error{fmt.Errorf("World.Checkpoint: %w", err)}
	}
	s.prefix = time.Since(t0)

	dig := newDigestSink()
	var recs [][]*trace.Record
	forks := warmForks()
	executed := prefixFired
	for i := range forks {
		t1 := time.Now()
		fsp := tr.begin("fork " + forks[i].Name)
		sp = tr.begin("Resume")
		fw, err := study.Resume(bytes.NewReader(snap.Bytes()), &forks[i])
		tr.end(sp, nil)
		if err != nil {
			return s, []error{fmt.Errorf("fork %s: study.Resume: %w", forks[i].Name, err)}
		}
		sp = tr.begin("Run")
		res, err := fw.Run()
		if err != nil {
			return s, []error{fmt.Errorf("fork %s: World.Run: %w", forks[i].Name, err)}
		}
		tr.end(sp, map[string]int64{"fired": int64(res.Events - prefixFired)})
		tr.end(fsp, nil)
		s.forks = append(s.forks, time.Since(t1))
		executed += res.Events - prefixFired
		for _, rec := range res.Records {
			dig.Observe(rec)
		}
		recs = append(recs, res.Records)
		s.counts.addFork(res)
		for _, srv := range fw.Servers {
			_, _, played, torn := srv.Counters()
			tr.played += played
			tr.tornDown += torn
		}
	}
	tr.end(root, nil)
	s.run = time.Since(t0)
	tr.executed = executed
	s.counts.Records, s.counts.Digest = dig.n, dig.sum()
	s.counts.Snapshot = snap.Len()

	agg := figures.NewAggregates()
	sink := tr.timingSink(agg, nil)
	for _, rs := range recs {
		for _, rec := range rs {
			sink.Observe(rec)
		}
	}
	return s, make([]error, len(forks))
}
