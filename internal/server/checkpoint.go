package server

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"realtracer/internal/media"
	"realtracer/internal/ratecontrol"
	"realtracer/internal/rdt"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
	"realtracer/internal/transport"
)

// Checkpoint/restore for the server engine. A server's serialized state is:
//
//   - the availability/diagnostic counters and the session ID cursor;
//   - every control connection (including between-session ones reachable
//     only through the ctlConns track list), each with the ID of the session
//     it most recently SETUP;
//   - data connections accepted but not yet bound by a DataHello;
//   - every streaming session: transport conns, rate controller, frame
//     source cursor, pace/check timers as (At, seq) records, retransmit
//     window, FEC accumulation and SureStream switching state.
//
// The availability RNG (cfg.Rand) is owned by whoever built the Config — in
// a study world that is the world itself, which persists the draw count in
// its own section and hands the restored Server an already-positioned Rand.

func init() {
	simclock.RegisterEventKind("server.pace", (*paceArm)(nil))
	simclock.RegisterEventKind("server.check", (*checkArm)(nil))
}

// sessOrder extracts the numeric part of a "sess-N" ID so sessions serialize
// in creation order — the order that makes byDataAddr's latest-wins rebuild
// correct.
func sessOrder(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "sess-"))
	if err != nil {
		return -1
	}
	return n
}

// Snap runs the server's full state through c; app runs application
// payloads queued inside the server's TCP conns. Decoding overlays a
// freshly started server that holds no connections or sessions yet (Start
// must have run: the restore re-seeds the live listeners and rebuilds UDP
// conn views from the bound data port), and registers restored TCP conns
// into tbl so in-flight wire segments can resolve against them.
func (s *Server) Snap(c *snap.Codec, stack *transport.Stack, app transport.AppCodec, tbl *transport.ConnTable) {
	c.Tag("server")
	c.U64(&s.describes)
	c.U64(&s.unavailable)
	c.U64(&s.played)
	c.U64(&s.tornDown)
	c.Int(&s.nextID)

	// Control connections: open ones, plus closed ones a session still
	// references (DropClient matches on the control conn's remote address,
	// so losing the link would change churn behavior after a resume), each
	// with the ID of the session it most recently SETUP.
	ccs := s.checkpointedCtlConns()
	var ccSess []string
	snap.Slice(c, &ccs, func(c *snap.Codec, cc **controlConn) {
		if *cc == nil {
			*cc = &controlConn{srv: s}
		}
		transport.SnapConn(c, &(*cc).conn, stack, app, tbl)
		if c.Loading() && c.Err() == nil {
			if conn := (*cc).conn; !transport.ConnClosed(conn) {
				conn.SetReceiver((*cc).onMessage)
				c.Fail(stack.RestoreAccepted(s.cfg.ControlPort, conn))
			}
			s.ctlConns = append(s.ctlConns, *cc)
		}
		id := ""
		if (*cc).sess != nil {
			id = (*cc).sess.id
		}
		c.Str(&id)
		ccSess = append(ccSess, id)
	})

	// Data connections still waiting for their hello.
	var pend []transport.Conn
	for _, conn := range s.pendingData {
		if !transport.ConnClosed(conn) {
			pend = append(pend, conn)
		}
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i].LocalAddr() < pend[j].LocalAddr() })
	snap.Slice(c, &pend, func(c *snap.Codec, conn *transport.Conn) {
		transport.SnapConn(c, conn, stack, app, tbl)
		if c.Loading() && c.Err() == nil {
			s.watchPendingData(*conn)
			c.Fail(stack.RestoreAccepted(s.cfg.DataTCPPort, *conn))
		}
	})

	// Sessions run in creation order, so on decoding the latest SETUP for a
	// data address wins — the same overwrite order the live run produced.
	var sessions []*streamSession
	for _, id := range s.sessionIDs() {
		sessions = append(sessions, s.sessions[id])
	}
	snap.Slice(c, &sessions, func(c *snap.Codec, sess **streamSession) {
		if *sess == nil {
			*sess = &streamSession{
				srv:         s,
				sentVideo:   make(map[uint32]*rdt.Data),
				failedRungs: make(map[int]int),
			}
		}
		(*sess).snap(c, stack, app, tbl, ccs)
		if c.Loading() && c.Err() == nil {
			s.sessions[(*sess).id] = *sess
			if spec := (*sess).spec; spec.Protocol == "udp" && spec.ClientDataAddr != "" {
				s.byDataAddr[spec.ClientDataAddr] = *sess
			}
		}
	})
	for i, cc := range ccs {
		if c.Loading() && ccSess[i] != "" {
			cc.sess = s.sessions[ccSess[i]]
		}
	}
}

// checkpointedCtlConns returns the control connections a checkpoint
// carries, in local-address order.
func (s *Server) checkpointedCtlConns() []*controlConn {
	referenced := make(map[*controlConn]bool, len(s.sessions))
	for _, sess := range s.sessions {
		if sess.cc != nil {
			referenced[sess.cc] = true
		}
	}
	var ccs []*controlConn
	for _, cc := range s.ctlConns {
		if !transport.ConnClosed(cc.conn) || referenced[cc] {
			ccs = append(ccs, cc)
		}
	}
	sort.Slice(ccs, func(i, j int) bool { return ccs[i].conn.LocalAddr() < ccs[j].conn.LocalAddr() })
	return ccs
}

// sessionIDs returns the live session IDs in creation order — the order
// that makes byDataAddr's latest-wins rebuild correct.
func (s *Server) sessionIDs() []string {
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return sessOrder(ids[i]) < sessOrder(ids[j]) })
	return ids
}

// snap runs one streaming session. ccs is the server's checkpointed control
// connection list, which the session references by index.
func (sess *streamSession) snap(c *snap.Codec, stack *transport.Stack, app transport.AppCodec, tbl *transport.ConnTable, ccs []*controlConn) {
	s := sess.srv
	c.Tag("sess")
	c.Str(&sess.id)
	url := ""
	if sess.clip != nil {
		url = sess.clip.URL
	}
	c.Str(&url)
	if c.Loading() && c.Err() == nil {
		if sess.clip = s.cfg.Library.Lookup(url); sess.clip == nil {
			c.Fail(fmt.Errorf("server: restore: unknown clip %q", url))
			return
		}
	}
	c.Str(&sess.spec.Protocol)
	c.Str(&sess.spec.ClientDataAddr)
	c.Str(&sess.spec.ServerDataAddr)
	c.F64(&sess.maxKbps)
	idx := slices.Index(ccs, sess.cc)
	c.Int(&idx)
	if c.Loading() && idx >= 0 && idx < len(ccs) {
		sess.cc = ccs[idx]
	}

	hasData := sess.dataTCP != nil
	c.Bool(&hasData)
	if hasData {
		transport.SnapConn(c, &sess.dataTCP, stack, app, tbl)
		if c.Loading() && c.Err() == nil {
			// bindTCPData minus maybeStart: streaming position is overlaid
			// below, not restarted.
			sess.attachTCPData(sess.dataTCP)
			if !transport.ConnClosed(sess.dataTCP) {
				c.Fail(stack.RestoreAccepted(s.cfg.DataTCPPort, sess.dataTCP))
			}
		}
	}
	hasCtrl := sess.ctrl != nil
	c.Bool(&hasCtrl)
	if hasCtrl {
		ratecontrol.Snap(c, &sess.ctrl)
	}

	c.Int(&sess.encIdx)
	c.Bool(&sess.playing)
	c.Bool(&sess.stopped)
	c.Dur(&sess.startAt)
	c.Dur(&sess.mediaPos)
	hasSrc := sess.src != nil
	c.Bool(&hasSrc)
	if hasSrc {
		if c.Loading() {
			if c.Err() != nil {
				return
			}
			if sess.encIdx < 0 || sess.encIdx >= len(sess.clip.Encodings) {
				c.Fail(fmt.Errorf("server: restore: encoding index %d out of range for clip %q", sess.encIdx, url))
				return
			}
			sess.srcStore = &media.FrameSource{}
			sess.srcStore.Reset(sess.clip, sess.clip.Encodings[sess.encIdx])
			sess.src = sess.srcStore
		}
		sess.src.Snap(c)
	}
	sess.paceTimer.Snap(c, s.cfg.Clock, (*paceArm)(sess))
	sess.checkTimer.Snap(c, s.cfg.Clock, (*checkArm)(sess))

	c.U32(&sess.videoSeq)
	c.U32(&sess.audioSeq)
	c.F64(&sess.budget)
	snap.Slice(c, &sess.fecMeta, rdt.SnapRepairMeta)
	c.U32(&sess.fecBase)
	sess.lastReport.Snap(c)
	c.Bool(&sess.haveReport)
	c.Int(&sess.healthyChecks)

	// The retransmit window persists its packets in sequence order; each
	// decodes into the session's own arena and re-keys by its Seq.
	n := c.Len(len(sess.sentVideo))
	for _, seq := range snap.SortedKeys(sess.sentVideo) {
		sess.sentVideo[seq].Snap(c)
	}
	for i := 0; i < n && c.Loading() && c.Err() == nil; i++ {
		d := sess.arena.NewData()
		d.Snap(c)
		sess.sentVideo[d.Seq] = d
	}
	c.U32(&sess.sentFloor)
	c.U32(&sess.videoFrameCtr)
	c.U32(&sess.audioFrameCtr)

	c.Bool(&sess.hasPending)
	if sess.hasPending {
		f := &sess.pending
		c.Bool(&f.Video)
		c.Int(&f.Index)
		c.Dur(&f.MediaTime)
		c.Int(&f.Size)
		c.Bool(&f.Keyframe)
	}

	c.Dur(&sess.lastUpswitchAt)
	c.Dur(&sess.nextUpswitchOK)
	c.Dur(&sess.upswitchHold)
	c.Int(&sess.upswitchTo)
	snap.SortedMap(c, &sess.failedRungs, (*snap.Codec).Int, (*snap.Codec).Int)
	c.Int(&sess.switches)

	if c.Loading() && sess.spec.Protocol == "udp" {
		sess.dataUDP = s.udpPort.ConnFor(sess.spec.ClientDataAddr)
	}
}
