package netsim

import (
	"fmt"
	"sort"

	"realtracer/internal/detrand"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
)

// Checkpoint/restore for the network layer. The snapshot holds only what a
// rebuilt world cannot rederive: the interning table (ID order is
// load-bearing — persisted HostIDs and grid indices stay valid only if the
// restored table assigns the same IDs), attached hosts' access configs and
// fluid-queue state, each path's dynamic fields (the route itself comes back
// from the RouteTable), every in-flight packet with its original (At, seq),
// and the draw counts of the two RNG streams. Packet payloads are opaque to
// netsim — the transport layer injects the payload codec.

func init() {
	simclock.RegisterEventKind("netsim.packet", &Packet{})
}

// PayloadCodec runs the opaque packet payloads netsim carries by reference
// through a codec: encoding writes *payload, decoding stores the decoded
// payload into it. The transport layer provides the implementation; netsim
// cannot depend on it.
type PayloadCodec func(c *snap.Codec, payload *any)

// pathEntry pairs an ordered host pair with its path state for a
// deterministic checkpoint walk.
type pathEntry struct {
	from, to HostID
	p        *pathState
}

// sortedPaths returns every existing pathState with its pair, ordered by
// (from, to) so the snapshot bytes do not depend on map iteration.
func (n *Network) sortedPaths() []pathEntry {
	var out []pathEntry
	if n.grid != nil {
		for f := 1; f <= n.stride; f++ {
			for t := 1; t <= n.stride; t++ {
				if p := n.grid[(f-1)*n.stride+(t-1)]; p != nil {
					out = append(out, pathEntry{HostID(f), HostID(t), p})
				}
			}
		}
		return out
	}
	for k, p := range n.overflow {
		out = append(out, pathEntry{k.from, k.to, p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// Snap runs the network's core dynamic state through c: RNG positions,
// counters, the interning table, attached hosts and path state. In-flight
// packets run separately through SnapPackets — their payloads may
// reference transport connections, which the world runs between the two
// calls so packet payload references can resolve against restored conns.
//
// Decoding overlays the state onto a freshly rebuilt network: the caller
// must already have rebuilt the static world (build-time hosts attached,
// dynamics schedule reinstalled when applicable) and Reset the clock to the
// snapshot's scalars. Decoding re-interns the name table, re-attaches
// runtime hosts and overlays path and queue state. keepDynamics must be
// false when the restored world runs a different dynamics schedule than the
// checkpointed one (a fork): the per-path event indices and chain state
// then refer to the old schedule and are discarded, along with the old
// dynamics draw stream.
func (n *Network) Snap(c *snap.Codec, keepDynamics bool) {
	if n.fab != nil {
		c.Fail(fmt.Errorf("netsim: sharded networks cannot be checkpointed"))
		return
	}
	c.Tag("netsim")
	seed, count := n.drng.State()
	c.I64(&seed)
	c.U64(&count)
	if c.Loading() && c.Err() == nil {
		n.drng = detrand.Restore(seed, count)
		n.rng = n.drng.Rand
	}
	hasDyn := n.dyn != nil
	c.Bool(&hasDyn)
	if hasDyn {
		var dseed int64
		var dcount uint64
		if n.dyn != nil {
			dseed, dcount = n.dyn.drng.State()
		}
		c.I64(&dseed)
		c.U64(&dcount)
		if c.Loading() && keepDynamics && n.dyn != nil && c.Err() == nil {
			n.dyn.drng = detrand.Restore(dseed, dcount)
			n.dyn.rng = n.dyn.drng.Rand
		}
	}
	c.U64(&n.sent)
	c.U64(&n.delivered)
	c.U64(&n.dropped)

	// Interning table, in ID order. Decoding replays it through Intern so a
	// rebuilt world's name->ID assignment matches the snapshot exactly.
	c.Tag("hosts")
	var names []string
	if !c.Loading() {
		names = n.names[1:]
	}
	snap.Slice(c, &names, (*snap.Codec).Str)
	for i := 0; i < len(names) && c.Loading() && c.Err() == nil; i++ {
		if id := n.Intern(names[i]); id != HostID(i+1) {
			c.Fail(fmt.Errorf("netsim: restore interning mismatch: %q got ID %d, want %d (world rebuilt differently than checkpointed)", names[i], id, i+1))
		}
	}
	var attached []HostID
	for id := 1; id < len(n.hostTab) && !c.Loading(); id++ {
		if n.hostTab[id] != nil {
			attached = append(attached, HostID(id))
		}
	}
	snap.Slice(c, &attached, n.snapHost)

	c.Tag("paths")
	var paths []pathEntry
	if !c.Loading() {
		paths = n.sortedPaths()
	}
	snap.Slice(c, &paths, func(c *snap.Codec, pe *pathEntry) {
		if c.Loading() {
			pe.p = &pathState{}
		}
		p := pe.p
		snap.I64Of(c, &pe.from)
		snap.I64Of(c, &pe.to)
		c.Dur(&p.busyUntil)
		// CongestionMean/Var can be overridden after path creation
		// (SetCongestionMean); everything else in the route is rederived
		// from the RouteTable.
		c.F64(&p.route.CongestionMean)
		c.F64(&p.route.CongestionVar)
		c.F64(&p.congestion)
		c.Dur(&p.lastResample)
		c.Bool(&p.dynMatched)
		snap.Slice(c, &p.dynEvents, (*snap.Codec).Int)
		snap.Slice(c, &p.ge, func(c *snap.Codec, g *geState) {
			c.Bool(&g.bad)
			c.Dur(&g.last)
		})
		if c.Loading() && c.Err() == nil {
			n.restorePath(c, *pe, keepDynamics)
		}
	})
}

// snapHost runs one attached host's access config and fluid-queue state;
// decoding re-attaches a runtime host the rebuilt world lacks and checks
// a build-time one matches.
func (n *Network) snapHost(c *snap.Codec, id *HostID) {
	snap.I64Of(c, id)
	h := &host{}
	if !c.Loading() {
		h = n.hostTab[*id]
	}
	c.F64(&h.cfg.Access.DownKbps)
	c.F64(&h.cfg.Access.UpKbps)
	c.Dur(&h.cfg.Access.QueueDelayMax)
	c.Dur(&h.cfg.Access.BaseDelay)
	c.Dur(&h.upBusyUntil)
	c.Dur(&h.downBusyUntil)
	if !c.Loading() || c.Err() != nil {
		return
	}
	if *id <= 0 || int(*id) >= len(n.hostTab) {
		c.Fail(fmt.Errorf("netsim: restore host ID %d out of range", *id))
		return
	}
	live := n.lookup(*id)
	if live == nil {
		n.AddHost(HostConfig{Name: n.names[*id], Access: h.cfg.Access})
		live = n.hostTab[*id]
	} else if live.cfg.Access != h.cfg.Access {
		c.Fail(fmt.Errorf("netsim: restore host %q access profile mismatch", n.names[*id]))
		return
	}
	live.upBusyUntil, live.downBusyUntil = h.upBusyUntil, h.downBusyUntil
}

// restorePath overlays one decoded path record onto the rebuilt network.
func (n *Network) restorePath(c *snap.Codec, pe pathEntry, keepDynamics bool) {
	if int(pe.from) >= len(n.names) || int(pe.to) >= len(n.names) || pe.from <= 0 || pe.to <= 0 {
		c.Fail(fmt.Errorf("netsim: restore path (%d,%d) out of range", pe.from, pe.to))
		return
	}
	p := n.path(pe.from, pe.to)
	p.busyUntil = pe.p.busyUntil
	p.route.CongestionMean = pe.p.route.CongestionMean
	p.route.CongestionVar = pe.p.route.CongestionVar
	p.congestion = pe.p.congestion
	p.lastResample = pe.p.lastResample
	if keepDynamics && n.dyn != nil {
		p.dynMatched = pe.p.dynMatched
		if len(pe.p.dynEvents) > 0 {
			p.dynEvents = pe.p.dynEvents
		}
		if len(pe.p.ge) > 0 {
			p.ge = pe.p.ge
		}
	}
}

// SnapPackets runs every in-flight packet of this network through c with
// its scheduled (At, seq); decoding re-injects each packet at its original
// slot. See Snap for why this is a separate section: decode it after the
// world's transport connections, since pc may resolve segment references
// against them.
func (n *Network) SnapPackets(c *snap.Codec, pc PayloadCodec) {
	c.Tag("packets")
	var pkts []simclock.PendingEvent
	if !c.Loading() {
		for _, pe := range n.Clock.Pendings() {
			if pkt, ok := pe.Handler.(*Packet); ok && pkt.net == n {
				if pkt.edge {
					c.Fail(fmt.Errorf("netsim: edge-scheduled packet in classic checkpoint"))
					return
				}
				pkts = append(pkts, pe)
			}
		}
	}
	snap.Slice(c, &pkts, func(c *snap.Codec, pe *simclock.PendingEvent) {
		pkt, _ := pe.Handler.(*Packet)
		if c.Loading() {
			pkt = n.Obtain()
			pkt.net = n
		}
		n.Clock.SnapSlot(c, &pe.Timer, pkt)
		snap.StrOf(c, &pkt.From)
		snap.StrOf(c, &pkt.To)
		snap.I64Of(c, &pkt.FromID)
		snap.I64Of(c, &pkt.ToID)
		snap.I64Of(c, &pkt.FromPort)
		snap.I64Of(c, &pkt.ToPort)
		c.Int(&pkt.Size)
		pc(c, &pkt.Payload)
	})
}

// RNGState exposes the base draw stream's position for tests.
func (n *Network) RNGState() (seed int64, count uint64) { return n.drng.State() }

// ReseedRNGs re-derives the network's draw streams from fresh seeds — the
// fork path: a named fork of a checkpoint diverges from its siblings by
// reseeding every stream deterministically instead of replaying the
// checkpointed draw counts. dynSeed is ignored when no dynamics schedule is
// installed.
func (n *Network) ReseedRNGs(seed, dynSeed int64) {
	n.drng = detrand.New(seed)
	n.rng = n.drng.Rand
	if n.dyn != nil {
		n.dyn.drng = detrand.New(dynSeed)
		n.dyn.rng = n.dyn.drng.Rand
	}
}
