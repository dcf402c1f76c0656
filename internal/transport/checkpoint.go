package transport

import (
	"fmt"

	"realtracer/internal/netsim"
	"realtracer/internal/seqwin"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
)

// Checkpoint/restore for the simulated transports. Two things make this
// layer subtle:
//
//   - A *tcpSeg on the wire is usually the SAME object as the entry in the
//     sender's inflight set (or, after a timeout requeue, its send queue).
//     Retransmits mutate ts/rexmit on that shared object, and the mutation
//     is visible to copies already in flight — the reference behavior a
//     restore must reproduce. Wire segments still owned by a live conn are
//     therefore serialized as references (conn local address + seq) and
//     resolved against the restored conn's own segment; only orphaned
//     segments (handshakes, closed conns) serialize by value.
//
//   - The RTO timer's handler is the conn itself (pooled event discipline),
//     so each conn runs its timer through SnapTimer, which re-arms it with
//     the original sequence number on restore.
//
// Application payloads nested in segments and datagrams are opaque here; the
// session layer supplies the AppCodec.

func init() {
	simclock.RegisterEventKind("transport.tcp-rto", &simTCP{})
}

// AppCodec runs the application payloads carried inside transport frames
// (RTSP messages, RDT packets, data hellos) through a codec: encoding
// writes *payload, decoding stores the decoded payload into it. nil
// payloads are handled by the transport layer before the codec is
// consulted.
type AppCodec func(c *snap.Codec, payload *any)

// ConnTable indexes restored simulated TCP conns by local address so wire
// segment references can resolve to the owning conn's live segment. One
// table per world restore; every decoded TCP conn registers into it.
type ConnTable struct {
	m map[netsim.Addr]*simTCP
}

// NewConnTable returns an empty table.
func NewConnTable() *ConnTable { return &ConnTable{m: make(map[netsim.Addr]*simTCP)} }

// Payload type tags in the snapshot.
const (
	payNil    = 0
	paySeg    = 1
	payAck    = 2
	payApp    = 3
	paySegRef = 4
)

// PayloadCodec returns the netsim payload codec for this world's in-flight
// packets: transport frames are handled here, anything else delegates to
// app. tbl must be the table the world's conns were restored into; encoding
// ignores it.
func PayloadCodec(app AppCodec, tbl *ConnTable) netsim.PayloadCodec {
	return func(c *snap.Codec, payload *any) {
		var tag uint8
		switch m := (*payload).(type) {
		case nil:
			tag = payNil
		case *tcpSeg:
			// Reference only segments a live conn still owns: an open
			// sender may mutate its inflight seg while a wire copy is
			// mid-hop, so the copy must restore as the same object. A
			// closed conn (torn-down session — possibly absent from the
			// snapshot entirely) never mutates again; its wire copies
			// serialize by value.
			tag = paySeg
			if conn := m.conn; conn != nil && !conn.closed && conn.ownsSeg(m) {
				tag = paySegRef
			}
		case *tcpAck:
			tag = payAck
		default:
			tag = payApp
		}
		c.U8(&tag)
		switch tag {
		case payNil:
		case paySegRef:
			var laddr netsim.Addr
			var seq uint64
			if seg, ok := (*payload).(*tcpSeg); ok {
				laddr, seq = seg.conn.laddr, seg.seq
			}
			snap.StrOf(c, &laddr)
			c.U64(&seq)
			if c.Loading() && c.Err() == nil {
				*payload = tbl.resolve(c, laddr, seq)
			}
		case paySeg:
			snapSeg(c, snap.Make[tcpSeg](c, payload), app)
		case payAck:
			a := snap.Make[tcpAck](c, payload)
			c.U64(&a.cumAck)
			c.Dur(&a.ts)
			c.Bool(&a.echoOK)
		case payApp:
			app(c, payload)
		default:
			c.Fail(fmt.Errorf("transport: unknown payload tag %d", tag))
		}
	}
}

// resolve finds the live segment a wire reference (conn local address, seq)
// names, failing c when the restored conns hold none.
func (tbl *ConnTable) resolve(c *snap.Codec, laddr netsim.Addr, seq uint64) any {
	conn := tbl.m[laddr]
	if conn == nil {
		c.Fail(fmt.Errorf("transport: wire segment references unknown conn %s", laddr))
		return nil
	}
	seg := conn.findSeg(seq)
	if seg == nil {
		c.Fail(fmt.Errorf("transport: wire segment references conn %s seq %d, which holds no such segment", laddr, seq))
		return nil
	}
	return seg
}

// ownsSeg reports whether seg is live sender-side state of c: in the
// inflight set or the unconsumed region of the send queue. Wire copies of
// owned segments serialize by reference to preserve shared-mutation
// semantics.
func (c *simTCP) ownsSeg(seg *tcpSeg) bool {
	if s, ok := c.inflight.Get(seg.seq); ok && s == seg {
		return true
	}
	for _, s := range c.queue[c.qhead:] {
		if s == seg {
			return true
		}
	}
	return false
}

// findSeg is ownsSeg's restore-side mirror: resolve a (conn, seq) reference
// to the conn's live segment.
func (c *simTCP) findSeg(seq uint64) *tcpSeg {
	if s, ok := c.inflight.Get(seq); ok {
		return s
	}
	for _, s := range c.queue[c.qhead:] {
		if s.seq == seq && !s.syn && !s.synAck && !s.fin {
			return s
		}
	}
	return nil
}

// snapSeg runs one segment by value. A decoded segment carries no conn
// back-pointer; owners set it.
func snapSeg(c *snap.Codec, seg *tcpSeg, app AppCodec) {
	var flags uint8
	for i, f := range [...]*bool{&seg.syn, &seg.synAck, &seg.fin, &seg.rexmit} {
		if *f {
			flags |= 1 << i
		}
	}
	c.U8(&flags)
	if c.Loading() {
		seg.syn, seg.synAck, seg.fin, seg.rexmit = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
	}
	c.U64(&seg.seq)
	c.Int(&seg.size)
	c.Dur(&seg.ts)
	hasPayload := seg.payload != nil
	c.Bool(&hasPayload)
	if hasPayload {
		app(c, &seg.payload)
	}
}

// Snap runs the stack's own state (the ephemeral port cursor) through c.
// The ACK free-list is a pure allocation cache and is not persisted.
func (s *Stack) Snap(c *snap.Codec) {
	c.Tag("stack")
	c.Int(&s.next)
}

// RestoreAccepted re-seeds a listener's SYN-dedup map with a restored
// server-side conn: a duplicate SYN still in flight from before the
// checkpoint must find the existing conn, exactly as it would have in the
// straight-through run. port is the listening port the conn was accepted on;
// c must be a conn decoded by SnapConn.
func (s *Stack) RestoreAccepted(port int, c Conn) error {
	tc, ok := c.(*simTCP)
	if !ok {
		return fmt.Errorf("transport: RestoreAccepted with %T", c)
	}
	l := s.listeners[port]
	if l == nil {
		return fmt.Errorf("transport: RestoreAccepted on port %d with no listener", port)
	}
	l.seen[tc.raddr] = tc
	return nil
}

// ConnClosed reports whether a simulated conn has been closed (locally or by
// a received FIN). Owners use it to prune dead conns from their checkpoint
// walks; unknown conn types report open.
func ConnClosed(c Conn) bool {
	switch m := c.(type) {
	case *simTCP:
		return m.closed
	case *simUDP:
		return m.closed
	default:
		return false
	}
}

// Conn type tags.
const (
	connTCP = 1
	connUDP = 2
)

// SnapConn runs a simulated conn owned by a session or player through c.
// Supported types: *simTCP (TCP control/data conns) and *simUDP
// (client-side connected UDP). Server-side UDP conn views (UDPPort.ConnFor)
// carry no state and are rebuilt by their owner instead. Decoding builds the
// conn on s into *conn, re-registering it with the network and (for TCP)
// into tbl; the owner re-installs its receiver afterwards, exactly as it did
// when the conn was first created.
func SnapConn(c *snap.Codec, conn *Conn, s *Stack, app AppCodec, tbl *ConnTable) {
	var tag uint8
	switch (*conn).(type) {
	case *simTCP:
		tag = connTCP
	case *simUDP:
		tag = connUDP
	default:
		if !c.Loading() {
			c.Fail(fmt.Errorf("transport: cannot persist conn type %T", *conn))
			return
		}
	}
	c.U8(&tag)
	switch tag {
	case connTCP:
		snapSimTCP(c, conn, s, app, tbl)
	case connUDP:
		snapSimUDP(c, conn, s)
	default:
		c.Fail(fmt.Errorf("transport: unknown conn tag %d", tag))
	}
}

func snapSimUDP(c *snap.Codec, conn *Conn, s *Stack) {
	var laddr, raddr netsim.Addr
	var closed bool
	if u, ok := (*conn).(*simUDP); ok {
		laddr, raddr, closed = u.laddr, u.raddr, u.closed
	}
	snap.StrOf(c, &laddr)
	snap.StrOf(c, &raddr)
	c.Bool(&closed)
	if !c.Loading() || c.Err() != nil {
		return
	}
	if closed {
		// Closed at checkpoint time: already unregistered in the live run,
		// and the host may be detached (a departed client) — build the dead
		// shell without touching the network.
		u := &simUDP{stack: s, laddr: laddr, raddr: raddr, raddrID: s.net.Intern(raddr.Host()), closed: true}
		u.lport, u.rport = laddr.Port(), raddr.Port()
		*conn = u
		return
	}
	*conn = s.newSimUDP(laddr, raddr)
}

// snapSimTCP runs the full simTCP state.
func snapSimTCP(c *snap.Codec, conn *Conn, s *Stack, app AppCodec, tbl *ConnTable) {
	c.Tag("tcp")
	t, _ := (*conn).(*simTCP)
	var laddr, raddr netsim.Addr
	var established, closed bool
	if t != nil {
		laddr, raddr, established, closed = t.laddr, t.raddr, t.established, t.closed
	}
	snap.StrOf(c, &laddr)
	snap.StrOf(c, &raddr)
	c.Bool(&established)
	c.Bool(&closed)
	if c.Loading() {
		if c.Err() != nil {
			return
		}
		// A conn closed at checkpoint time was already unregistered from
		// the network — and for a departed open-loop client the host
		// itself is gone — so only open conns re-register their packet
		// handler. Closed conns enter the table too: an in-flight packet
		// snapshotted mid-hop may still reference a just-closed conn's
		// segment storage.
		t = newSimTCPConn(s, laddr, raddr)
		if !closed {
			s.net.Register(laddr, t.onPacket)
		}
		t.established, t.closed = established, closed
		tbl.m[laddr] = t
		*conn = t
	}

	c.U64(&t.nextSeq)
	c.U64(&t.sendBase)
	c.F64(&t.cwnd)
	c.F64(&t.ssthresh)
	c.Int(&t.dupAcks)
	c.U64(&t.lastAck)
	c.Dur(&t.srtt)
	c.Dur(&t.rttvar)
	c.Dur(&t.rto)
	t.stack.clock.SnapTimer(c, &t.rtoTimer, t)
	c.U64(&t.rcvNext)

	seg := func(c *snap.Codec, sp **tcpSeg) {
		if *sp == nil {
			*sp = t.newSeg()
			(*sp).conn = t
		}
		snapSeg(c, *sp, app)
	}
	live := t.queue[t.qhead:]
	snap.Slice(c, &live, seg)
	if c.Loading() {
		t.queue = live
	}
	seqwin.Snap(c, &t.inflight, (*snap.Codec).U64, seg)
	seqwin.Snap(c, &t.reorder, (*snap.Codec).U64, seg)

	c.U64(&t.retransmits)
	c.U64(&t.fastRexmits)
	c.U64(&t.timeouts)
	c.U64(&t.segsSent)
	c.U64(&t.segsDelivered)
	c.Int(&t.consecutiveRTOs)
}
