// World checkpoint/fork: pay the warm-up once, fork N scenarios from one
// snapshot.
//
// Checkpoint serializes a running classic (unsharded) world — clock
// scalars, every pending typed event, the network core, server sessions,
// tracer/player bundles, workload cursors, the collected records and the
// position of every RNG stream — into a version-stamped snapshot. Resume
// rebuilds the world deterministically from the snapshot's Options (the
// build path replays exactly the draws the original build made), resets
// the clock, overlays the persisted state and re-arms every event at its
// original (time, seq) slot, so an exact resume is byte-identical to a
// straight-through run of the same seed. A named fork instead re-derives
// every RNG stream from the fork name and may change the scenario knobs
// that do not reshape the built world (dynamics, selection policy,
// intensities, controller), so N forks of one warm snapshot diverge
// deterministically.
package study

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"realtracer/internal/detrand"
	"realtracer/internal/session"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
	"realtracer/internal/trace"
	"realtracer/internal/transport"
)

func init() {
	simclock.RegisterEventKind("study.arrive", (*arriveArm)(nil))
	simclock.RegisterEventKind("study.depart", (*departArm)(nil))
}

// snapMagic stamps the snapshot format. Bump the trailing digit on any
// layout change: a resume under a mismatched build fails on the magic
// before misreading a single field.
const snapMagic = "RTSNAP1"

// drainCap bounds the virtual time Checkpoint may burn draining closure
// events (in-flight TCP dial callbacks, the one cold path still scheduled
// as a closure). Live dials resolve within a round-trip, so a drain that
// needs more than this is a leak, not a wait.
const drainCap = 30 * time.Second

// Fork names a divergent scenario to resume from a checkpoint. The nil
// Fork (or the zero value) is an exact resume: every RNG stream replays
// its draw count and the run completes byte-identical to never having
// stopped. A named fork re-derives every stream from Name, and the set
// fields override the snapshot's Options. Only knobs that do not reshape
// the built world may change; anything else (seed, population, workload
// profile, horizon) fails NewWorld's validation or the interning check.
type Fork struct {
	Name string

	Dynamics          *string
	DynamicsIntensity *float64
	DynamicsSeed      *int64
	Controller        *string
	Selection         *string
	WorkloadIntensity *float64
	CongestionScale   *float64
}

// apply overlays the fork's deltas onto opt and reports whether the
// dynamics schedule changed (which invalidates checkpointed per-path
// chain state).
func (f *Fork) apply(opt *Options) (dynChanged bool) {
	if f == nil {
		return false
	}
	if f.Dynamics != nil && *f.Dynamics != opt.Dynamics {
		opt.Dynamics = *f.Dynamics
		dynChanged = true
	}
	if f.DynamicsIntensity != nil && *f.DynamicsIntensity != opt.DynamicsIntensity {
		opt.DynamicsIntensity = *f.DynamicsIntensity
		dynChanged = true
	}
	if f.DynamicsSeed != nil && *f.DynamicsSeed != opt.DynamicsSeed {
		opt.DynamicsSeed = *f.DynamicsSeed
		dynChanged = true
	}
	if f.Controller != nil {
		opt.Controller = *f.Controller
	}
	if f.Selection != nil {
		opt.Selection = *f.Selection
	}
	if f.WorkloadIntensity != nil {
		opt.WorkloadIntensity = *f.WorkloadIntensity
	}
	if f.CongestionScale != nil {
		opt.CongestionScale = *f.CongestionScale
	}
	return dynChanged
}

// Applied returns base with the fork's scenario deltas applied — the
// options the forked world actually runs. Resume performs the same
// application internally; Applied lets callers (the campaign layer) label
// fork results with their effective configuration.
func (f *Fork) Applied(base Options) Options {
	f.apply(&base)
	return base
}

// forkSeed derives the seed a named fork's RNG stream restarts from: the
// checkpointed stream position hashed with the fork name and the stream's
// role label, so every fork gets a private, reproducible stream.
func forkSeed(seed int64, count uint64, name, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%s", seed, count, name, label)
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}

// applyRNG positions a rebuilt world's RNG stream: an exact resume replays
// the checkpointed draw count; a named fork reseeds from the derived fork
// seed. The stream object is mutated in place so every pointer the built
// world handed out (server configs, tracer configs, raters) stays valid.
func applyRNG(r *detrand.Rand, seed int64, count uint64, forkName, label string) {
	if forkName == "" {
		r.Seed(seed)
		r.Skip(count)
		return
	}
	r.Seed(forkSeed(seed, count, forkName, label))
}

// snapRNG runs a stream position as (seed, draw count); decoding positions
// r through applyRNG.
func snapRNG(c *snap.Codec, r *detrand.Rand, forkName, label string) {
	seed, count := r.State()
	c.I64(&seed)
	c.U64(&count)
	if c.Loading() && c.Err() == nil {
		applyRNG(r, seed, count, forkName, label)
	}
}

// snapCount runs the length of a collection the rebuilt world already
// fixes; decoding fails unless the snapshot holds the same count. It
// reports whether the codec is still healthy.
func snapCount(c *snap.Codec, n int, what string) bool {
	if got := c.Len(n); got != n && c.Err() == nil {
		c.Fail(fmt.Errorf("study: checkpoint holds %d %s, world built %d", got, what, n))
	}
	return c.Err() == nil
}

// snapOptions runs every Options field. The encoding doubles as the version
// stamp: the serialized bytes are hashed into the snapshot, so a build whose
// Options shape changed fails the hash (or leaves trailing bytes) instead
// of silently rebuilding a different world.
func snapOptions(c *snap.Codec, o *Options) {
	c.Tag("options")
	c.I64(&o.Seed)
	c.Int(&o.MaxUsers)
	c.Int(&o.ClipCap)
	c.Dur(&o.PlayFor)
	c.Bool(&o.DisableSureStream)
	c.Bool(&o.DisableFEC)
	c.Dur(&o.Preroll)
	c.Str(&o.Controller)
	c.F64(&o.CongestionScale)
	c.Str(&o.Dynamics)
	c.F64(&o.DynamicsIntensity)
	c.I64(&o.DynamicsSeed)
	c.Str(&o.Workload)
	c.F64(&o.WorkloadIntensity)
	c.I64(&o.WorkloadSeed)
	c.Int(&o.Arrivals)
	c.Str(&o.Selection)
	c.Int(&o.Shards)
	c.Dur(&o.StaggerWindow)
	c.F64(&o.ServerUplinkKbps)
}

// snapHeader runs the snapshot header: the magic, then the options block
// with its hash. Decoding verifies all three and fills *opt.
func snapHeader(c *snap.Codec, opt *Options) error {
	magic := snapMagic
	c.Str(&magic)
	if c.Err() != nil {
		return fmt.Errorf("study: not a checkpoint: %w", c.Err())
	}
	if magic != snapMagic {
		return fmt.Errorf("study: checkpoint magic %q, want %q (snapshot from an incompatible build)", magic, snapMagic)
	}
	var block []byte
	if !c.Loading() {
		oc := snap.NewEncoder()
		snapOptions(oc, opt)
		block = oc.Encoded()
	}
	hash := hashBytes(block)
	c.Bytes(&block)
	c.U64(&hash)
	if !c.Loading() || c.Err() != nil {
		return c.Err()
	}
	if h := hashBytes(block); h != hash {
		return fmt.Errorf("study: checkpoint options hash mismatch (got %x, want %x): snapshot corrupted or from an incompatible build", h, hash)
	}
	oc := snap.NewDecoder(block)
	snapOptions(oc, opt)
	if err := oc.Err(); err != nil {
		return fmt.Errorf("study: checkpoint options: %w", err)
	}
	if n := oc.Left(); n > 0 {
		return fmt.Errorf("study: checkpoint options carry %d trailing byte(s) starting %#x: snapshot from an incompatible build", n, block[len(block)-n])
	}
	return nil
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// drainClosures steps the clock until no closure events remain pending.
// The only closures a running world schedules are TCP dial timeouts and
// retries, which the dial path cancels at establishment — so at any
// instant the live closure count is the number of dials in flight, each
// gone within a round-trip of stepping. The cap turns a leak into a loud
// error instead of an unbounded fast-forward.
func (w *World) drainClosures() error {
	limit := w.Clock.Now() + drainCap
	for w.Clock.PendingClosures() > 0 {
		if w.Clock.Now() > limit || !w.Clock.Step() {
			return fmt.Errorf("study: %d closure event(s) still pending after draining %v of virtual time; checkpoint aborted",
				w.Clock.PendingClosures(), drainCap)
		}
	}
	return nil
}

// Checkpoint serializes the world's full simulation state into out. The
// world stays runnable afterwards — checkpointing mid-run and continuing
// is exactly the warm-fork producer loop. Draining in-flight dial
// closures may advance virtual time slightly (bounded by drainCap); the
// snapshot captures the post-drain instant.
//
// Only the classic engine with the default collector sink is
// checkpointable: sharded worlds spread their state across goroutines,
// and a streaming sink has already let records go.
func (w *World) Checkpoint(out io.Writer) error {
	if w.fab != nil {
		return fmt.Errorf("study: sharded worlds cannot be checkpointed")
	}
	if w.collector == nil {
		return fmt.Errorf("study: checkpoint requires the default collector sink (SetSink disables checkpointing)")
	}
	if err := w.drainClosures(); err != nil {
		return err
	}
	if err := w.Clock.CheckPersistable(); err != nil {
		return err
	}

	c := snap.NewEncoder()
	if err := snapHeader(c, &w.Options); err != nil {
		return err
	}
	w.snapState(c, &resumeCtx{})
	if err := c.Err(); err != nil {
		return err
	}
	_, err := out.Write(c.Encoded())
	return err
}

// resumeCtx is the decode-only context of a world's layout; encoding
// passes the zero value.
type resumeCtx struct {
	forkName     string // "" for an exact resume
	keepDynamics bool   // false when the fork changed the dynamics schedule
	tbl          *transport.ConnTable
}

// snapState runs the world's dynamic state: the clock scalars, the network
// core, the servers, the panel or open-loop population, the collected
// records and, last, the in-flight packets.
func (w *World) snapState(c *snap.Codec, rc *resumeCtx) {
	c.Tag("clock")
	now, seq, fired := w.Clock.Now(), w.Clock.Seq(), w.Clock.Fired()
	c.Dur(&now)
	c.U64(&seq)
	c.U64(&fired)
	if c.Loading() {
		if c.Err() != nil {
			return
		}
		// Reset wipes every build-time event (panel start timers, the
		// first arrival); each owner below re-arms its own events at their
		// original slots.
		w.Clock.Reset(now, seq, fired)
	}
	w.Net.Snap(c, rc.keepDynamics)

	app := session.SnapCodec()
	c.Tag("servers")
	if snapCount(c, len(w.Servers), "servers") {
		for i, srv := range w.Servers {
			snapRNG(c, w.serverRNGs[i], rc.forkName, "server:"+w.ActiveSites[i].Host)
			w.serverStacks[i].Snap(c)
			srv.Snap(c, w.serverStacks[i], app, rc.tbl)
		}
	}

	openLoop := w.open != nil
	c.Bool(&openLoop)
	switch {
	case c.Err() != nil:
	case openLoop && w.open == nil:
		c.Fail(fmt.Errorf("study: open-loop checkpoint but the rebuilt world is a panel"))
	case !openLoop && w.open != nil:
		c.Fail(fmt.Errorf("study: panel checkpoint but the rebuilt world is open-loop"))
	case openLoop:
		w.snapOpenLoop(c, app, rc)
	default:
		w.snapPanel(c, app, rc)
	}

	c.Tag("records")
	var recs []byte
	if !c.Loading() {
		var buf bytes.Buffer
		c.Fail(trace.WriteJSON(&buf, w.collector.Records()))
		recs = buf.Bytes()
	}
	c.Bytes(&recs)
	if c.Loading() && c.Err() == nil {
		got, err := trace.ReadJSON(bytes.NewReader(recs))
		if err != nil {
			c.Fail(fmt.Errorf("study: checkpoint records: %w", err))
		}
		for _, rec := range got {
			w.collector.Observe(rec)
		}
	}

	// Packets go last: their payloads may reference TCP conns run above,
	// and decoding resolves those references against the conns it has
	// already rebuilt.
	w.Net.SnapPackets(c, transport.PayloadCodec(app, rc.tbl))
	c.Tag("endsnap")
}

func (w *World) snapPanel(c *snap.Codec, app transport.AppCodec, rc *resumeCtx) {
	c.Tag("panel")
	c.Int(&w.remaining)
	if !snapCount(c, len(w.Users), "panel users") {
		return
	}
	for i, u := range w.Users {
		snapRNG(c, w.userRNGs[i], rc.forkName, "user:"+u.Name)
		st := w.stacks[u.Name]
		if st == nil {
			c.Fail(fmt.Errorf("study: no tracked stack for panel user %s", u.Name))
			return
		}
		st.Snap(c)
		w.Clock.SnapTimer(c, &w.startTimers[i], w.tracers[i])
		w.tracers[i].Snap(c, st, app, rc.tbl)
	}
}

func (w *World) snapOpenLoop(c *snap.Codec, app transport.AppCodec, rc *resumeCtx) {
	c.Tag("openloop")
	cell := w.open.cells[0] // the classic open loop is a single cell
	c.Int(&cell.arrivalsLeft)
	c.Int(&cell.active)
	c.Int(&cell.sessions)
	c.Int(&cell.balked)
	c.Int(&cell.departed)
	c.Int(&cell.cursor)
	snapRNG(c, cell.rng, rc.forkName, "arrivals")
	sp, _ := cell.policy.(interface {
		PolicyState() int
		SetPolicyState(int)
	})
	cursor := 0
	if sp != nil {
		cursor = sp.PolicyState()
	}
	c.Int(&cursor)
	if sp != nil && c.Loading() {
		sp.SetPolicyState(cursor)
	}
	w.Clock.SnapTimer(c, &cell.arrivalTimer, (*arriveArm)(cell))
	if !snapCount(c, len(cell.bundles), "templates") {
		return
	}
	for mi, b := range cell.bundles {
		c.Bool(&cell.busy[mi])
		built := b != nil
		c.Bool(&built)
		if !built {
			continue
		}
		var seed int64
		var count uint64
		if b != nil {
			seed, count = b.rng.State()
		}
		c.I64(&seed)
		c.U64(&count)
		if c.Loading() {
			if c.Err() != nil {
				return
			}
			b = cell.newBundle(mi, seed)
			cell.bundles[mi] = b
			applyRNG(b.rng, seed, count, rc.forkName, "session:"+w.Users[b.idx].Name)
		}
		st := w.stacks[w.Users[b.idx].Name]
		if st == nil {
			c.Fail(fmt.Errorf("study: no tracked stack for template %s", w.Users[b.idx].Name))
			return
		}
		st.Snap(c)
		c.Bool(&b.done)
		c.Bool(&b.departed)
		c.I64(&b.ordinal)
		snap.Slice(c, &b.clips, (*snap.Codec).Int)
		if c.Loading() && !w.restorePlaylist(c, b) {
			return
		}
		w.Clock.SnapTimer(c, &b.departTimer, (*departArm)(b))
		b.tr.Snap(c, st, app, rc.tbl)
	}
}

// restorePlaylist rebuilds a decoded bundle's playlist from its clip
// indices and installs it, which clears the tracer's walk state before the
// tracer's own record repositions the walk.
func (w *World) restorePlaylist(c *snap.Codec, b *sessionBundle) bool {
	b.playlist = b.playlist[:0]
	for _, ci := range b.clips {
		if ci < 0 || ci >= len(w.Playlist) {
			c.Fail(fmt.Errorf("study: checkpoint clip index %d out of playlist range", ci))
			return false
		}
		b.playlist = append(b.playlist, w.Playlist[ci])
	}
	b.tr.Reset(b.playlist)
	return c.Err() == nil
}

// Resume rebuilds a world from a snapshot written by Checkpoint and
// positions it to continue exactly where the checkpoint left off; drive
// it with Run (or RunUntil) as usual. fork selects between an exact
// resume (nil, byte-identical to never stopping) and a named divergent
// scenario; see Fork.
func Resume(r io.Reader, fork *Fork) (*World, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("study: read checkpoint: %w", err)
	}
	c := snap.NewDecoder(data)
	var opt Options
	if err := snapHeader(c, &opt); err != nil {
		return nil, err
	}
	dynChanged := fork.apply(&opt)
	rc := &resumeCtx{keepDynamics: !dynChanged, tbl: transport.NewConnTable()}
	if fork != nil {
		rc.forkName = fork.Name
	}

	// Deterministic rebuild: NewWorld replays exactly the build-time draws
	// the original made, so the static world (hosts, libraries, playlist,
	// route table) matches the snapshot and the overlay below only has to
	// carry the dynamic state.
	w, err := NewWorld(opt)
	if err != nil {
		return nil, err
	}
	if w.fab != nil {
		return nil, fmt.Errorf("study: sharded worlds cannot be restored")
	}
	w.snapState(c, rc)
	if err := c.Err(); err != nil {
		return nil, err
	}
	if rc.forkName != "" {
		dseed := opt.DynamicsSeed
		if dseed == 0 {
			dseed = opt.Seed + 4
		}
		w.Net.ReseedRNGs(forkSeed(opt.Seed+3, 0, rc.forkName, "net"), forkSeed(dseed, 0, rc.forkName, "dynamics"))
	}
	return w, nil
}
