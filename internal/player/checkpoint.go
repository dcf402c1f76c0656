package player

import (
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
	"realtracer/internal/transport"
)

// The player's six timer handlers are converted-pointer types over Player
// itself, so each registers as its own persistable event kind; a pending
// timer serializes as (kind, At, seq) owned by the player record.
func init() {
	simclock.RegisterEventKind("player.idle", (*idleArm)(nil))
	simclock.RegisterEventKind("player.nack", (*nackArm)(nil))
	simclock.RegisterEventKind("player.report", (*reportArm)(nil))
	simclock.RegisterEventKind("player.frame", (*frameArm)(nil))
	simclock.RegisterEventKind("player.underrun", (*underrunArm)(nil))
	simclock.RegisterEventKind("player.timeup", (*timeUpArm)(nil))
}

// Snap runs the complete mid-session player through c: the handshake state
// machine (plain-data pending kinds), both connections, the frame buffer and
// reassembly set, the FEC window and NACK ledger, every timer, and the
// accumulated Stats. The player persists the Config scalars that were drawn
// from its owner's RNG at session start (URL, addresses, protocol, bandwidth
// cap, durations). Decoding rebuilds the session onto p, which must be fresh
// from New or Reset with the owner-supplied environment (Clock, Net, CPU,
// Rand, Arena, OnDone, DisableScalableVideo); connections restore through
// the host's stack and re-register in tbl for segment references.
func (p *Player) Snap(c *snap.Codec, stack *transport.Stack, app transport.AppCodec, tbl *transport.ConnTable) {
	c.Tag("player")
	c.Str(&p.cfg.URL)
	c.Str(&p.cfg.ControlAddr)
	c.Str(&p.cfg.ServerUDPAddr)
	snap.U8Of(c, &p.cfg.Protocol)
	c.F64(&p.cfg.MaxBandwidthKbps)
	c.Dur(&p.cfg.PlayFor)
	c.Dur(&p.cfg.Preroll)
	if c.Loading() {
		if c.Err() != nil {
			return
		}
		p.init(p.cfg)
	}

	conn := func(conn *transport.Conn, recv func(any, int)) {
		has := *conn != nil
		c.Bool(&has)
		if has {
			transport.SnapConn(c, conn, stack, app, tbl)
			if c.Loading() && c.Err() == nil {
				(*conn).SetReceiver(recv)
			}
		}
	}
	conn(&p.ctl, p.onControl)
	conn(&p.data, p.onData)
	c.Bool(&p.dataIsMe)

	c.Str(&p.sessID)
	p.desc.Snap(c)
	c.Int(&p.cseq)
	snap.SortedMap(c, &p.pending, (*snap.Codec).Int, (*snap.Codec).U8)

	c.Str(&p.state)
	c.Dur(&p.playStart)
	c.Dur(&p.mediaBase)
	c.Dur(&p.playPos)
	clk := p.cfg.Clock
	p.endAt.Snap(c, clk, (*timeUpArm)(p))
	p.frameTimer.Snap(c, clk, (*frameArm)(p))
	p.graceTimer.Snap(c, clk, (*underrunArm)(p))
	p.idle.Snap(c, clk, (*idleArm)(p))
	p.reportTick.Snap(c, clk, (*reportArm)(p))
	p.nackTimer.Snap(c, clk, (*nackArm)(p))
	c.U32(&p.epoch)

	// The frame heap persists in raw array order: restoring the identical
	// slice reproduces the identical heap layout, hence identical pop order.
	snap.Slice(c, &p.frames, func(c *snap.Codec, f *bufFrame) {
		c.Dur(&f.mediaTime)
		c.Dur(&f.arrived)
		c.Bool(&f.video)
		c.Bool(&f.keyframe)
		c.F64(&f.encRate)
		c.U32(&f.index)
		c.Int(&f.size)
	})
	snap.Slice(c, &p.partials, func(c *snap.Codec, pa *partial) {
		c.U64(&pa.key)
		c.Dur(&pa.mediaTime)
		c.Bool(&pa.video)
		c.Bool(&pa.keyframe)
		c.F64(&pa.encRate)
		c.U32(&pa.index)
		c.U8(&pa.count)
		snap.U32Of(c, &pa.got)
		c.U8(&pa.need)
		c.Int(&pa.size)
	})

	c.U32(&p.nextVideoIdx)
	c.Bool(&p.videoIdxSeen)
	c.Bool(&p.chainBroken)
	c.Dur(&p.bufEnd)
	c.Bool(&p.eos)
	c.Dur(&p.firstRecvAt)
	c.Dur(&p.lastRecvAt)
	c.Int(&p.bytesRecv)

	// haveSeq values are only ever membership-tested after insertion, so the
	// window persists as its key set and restores with nil values.
	c.U32(&p.highestSeq)
	snap.SortedMap(c, &p.haveSeq, (*snap.Codec).U32, nil)
	c.U32(&p.seqFloor)
	snap.Slice(c, &p.lowSeqs, (*snap.Codec).U32)
	c.Int(&p.recvSeqCount)
	c.Int(&p.recovered)
	c.U32(&p.lastRepHighest)
	c.Int(&p.lastRepLost)
	snap.SortedMap(c, &p.nackOutstanding, (*snap.Codec).U32, (*snap.Codec).Int)

	snap.Slice(c, &p.playTimes, (*snap.Codec).Dur)
	c.Int(&p.intBytes)
	c.Int(&p.lastTickFrames)
	c.Int(&p.decim)
	c.Int(&p.decimCount)
	c.F64(&p.curEncRate)
	c.Dur(&p.buffStart)
	c.Dur(&p.rebufStart)
	c.Bool(&p.doneCalled)
	c.Dur(&p.idleDeadline)

	snapStats(c, &p.stats)
}

func snapStats(c *snap.Codec, s *Stats) {
	c.Tag("pstat")
	c.Str(&s.URL)
	c.Str(&s.Server)
	snap.U8Of(c, &s.Protocol)
	c.F64(&s.EncodedKbps)
	c.F64(&s.EncodedFPS)
	c.F64(&s.MeasuredKbps)
	c.F64(&s.MeasuredFPS)
	c.F64(&s.JitterMs)
	c.Int(&s.FramesPlayed)
	c.Int(&s.FramesDroppedLate)
	c.Int(&s.FramesDroppedCPU)
	c.Int(&s.FramesLost)
	c.Int(&s.FramesCorrupted)
	c.Int(&s.Rebuffers)
	c.Dur(&s.RebufferTime)
	c.Dur(&s.BufferingTime)
	c.F64(&s.CPUUtilization)
	c.Int(&s.Switches)
	c.Bool(&s.Unavailable)
	c.Bool(&s.Failed)
	c.Str(&s.FailReason)
	c.Dur(&s.PlayDuration)
	snap.Slice(c, &s.PlayoutGaps, (*snap.Codec).F64)
	snap.Slice(c, &s.Timeline, func(c *snap.Codec, tp *TimePoint) {
		c.Dur(&tp.T)
		c.F64(&tp.Kbps)
		c.F64(&tp.FPS)
	})
}
