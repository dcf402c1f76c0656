package transport

import (
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/seqwin"
	"realtracer/internal/simclock"
)

// simTCP is one direction-pair of a simulated TCP connection. Each message
// handed to Send becomes one segment (callers keep messages <= MSS, which
// all RTSP and RDT packets are). The implementation models the pieces of
// TCP that shape streaming performance:
//
//   - slow start and AIMD congestion avoidance (RFC 5681 shape)
//   - fast retransmit on 3 duplicate ACKs, with window halving
//   - retransmission timeout with exponential backoff and cwnd collapse
//   - strictly in-order delivery, so a loss stalls everything behind it
//     (head-of-line blocking — the cause of TCP's occasional jitter spikes)
//
// It deliberately omits byte-granularity sequence space, SACK, Nagle and
// flow-control negotiation; none of those change the study's observables.
type simTCP struct {
	stack   *Stack
	laddr   netsim.Addr
	raddr   netsim.Addr
	raddrID netsim.HostID // resolved once; refreshed when raddr changes
	lport   int32         // pre-parsed port of laddr
	rport   int32         // pre-parsed port of raddr; refreshed with raddr

	established   bool
	closed        bool
	onEstablished func()
	recv          func(any, int)

	// Sender state.
	nextSeq  uint64    // next sequence to assign
	sendBase uint64    // oldest unacked
	queue    []*tcpSeg // send queue; live region is queue[qhead:]
	qhead    int       // consumed prefix — see pump (head index, not re-slice)
	// inflight holds the transmitted, unacknowledged segments by seq. The
	// keys sit in the send window, which the cumulative ACK slides
	// forward, so a seqwin ring serves every lookup without hashing, and
	// its ascending walk hands the timeout requeue its seq order directly.
	inflight seqwin.Map[uint64, *tcpSeg]
	cwnd     float64 // congestion window, segments
	ssthresh float64
	dupAcks  int
	lastAck  uint64

	// RTT estimation (Jacobson/Karels).
	srtt, rttvar time.Duration
	rto          time.Duration
	rtoTimer     simclock.Timer

	// Receiver state. reorder buffers out-of-order segments at or above
	// rcvNext, keyed by seq, until the hole below them fills.
	rcvNext uint64
	reorder seqwin.Map[uint64, *tcpSeg]

	// Segment slab: segments are carved out of chunked backing arrays, one
	// chunk allocation per segChunk segments instead of one per Send. Slab
	// segments are never recycled within a connection — a segment can be
	// referenced by the send queue, the inflight set, in-flight network
	// copies (retransmits clone nothing) and the peer's reorder buffer all
	// at once, so the only safe reclaim point is the connection's death,
	// when the whole slab becomes garbage together.
	segSlab []tcpSeg
	segUsed int
	requeue []*tcpSeg // scratch for onRTO's go-back-N sweep

	// Counters for tests and diagnostics.
	retransmits     uint64
	fastRexmits     uint64
	timeouts        uint64
	segsSent        uint64
	segsDelivered   uint64
	consecutiveRTOs int
}

// maxConsecutiveRTOs bounds retransmission attempts before the connection
// aborts (the peer is presumed gone).
const maxConsecutiveRTOs = 8

func newSimTCP(s *Stack, laddr, raddr netsim.Addr) *simTCP {
	c := newSimTCPConn(s, laddr, raddr)
	s.net.Register(laddr, c.onPacket)
	return c
}

// newSimTCPConn builds the conn without registering its packet handler.
// The restore path uses it directly for conns that were closed at
// checkpoint time: a closed conn was already unregistered in the live run,
// and its host may be detached entirely (a departed open-loop client).
func newSimTCPConn(s *Stack, laddr, raddr netsim.Addr) *simTCP {
	return &simTCP{
		stack:    s,
		laddr:    laddr,
		raddr:    raddr,
		raddrID:  s.net.Intern(raddr.Host()),
		lport:    laddr.Port(),
		rport:    raddr.Port(),
		cwnd:     2,
		ssthresh: 64,
		rto:      initialRTO,
	}
}

// Conn interface.

func (c *simTCP) Send(payload any, size int) error {
	if c.closed {
		return ErrClosed
	}
	seg := c.newSeg()
	seg.conn, seg.seq, seg.payload, seg.size = c, c.nextSeq, payload, size
	c.nextSeq++
	if c.qhead == len(c.queue) {
		// Drained: rewind so the append below reuses the backing array
		// from the front instead of growing it forever.
		c.queue, c.qhead = c.queue[:0], 0
	}
	c.queue = append(c.queue, seg)
	c.pump()
	return nil
}

// segChunk sizes the slab chunks newSeg carves segments from.
const segChunk = 64

// newSeg returns a zeroed segment backed by the connection's slab. Earlier
// chunks stay alive exactly as long as some queue, inflight set, network
// hop or reorder buffer still points into them.
func (c *simTCP) newSeg() *tcpSeg {
	if c.segUsed == len(c.segSlab) {
		c.segSlab = make([]tcpSeg, segChunk)
		c.segUsed = 0
	}
	seg := &c.segSlab[c.segUsed]
	c.segUsed++
	return seg
}

func (c *simTCP) SetReceiver(fn func(any, int)) { c.recv = fn }

func (c *simTCP) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	fin := c.newSeg()
	fin.conn, fin.fin = c, true
	c.sendRaw(fin, 0)
	c.teardown()
	return nil
}

func (c *simTCP) teardown() {
	c.rtoTimer.Cancel()
	c.rtoTimer = simclock.Timer{}
	c.stack.net.Unregister(c.laddr)
}

func (c *simTCP) Protocol() Protocol { return TCP }
func (c *simTCP) LocalAddr() string  { return string(c.laddr) }
func (c *simTCP) RemoteAddr() string { return string(c.raddr) }
func (c *simTCP) RTT() time.Duration { return c.srtt }

// QueueDepth reports how many messages are waiting or in flight — the
// sender-side backlog a streaming server watches to detect that TCP cannot
// sustain the media rate.
func (c *simTCP) QueueDepth() int { return len(c.queue) - c.qhead + c.inflight.Len() }

// Counters returns (retransmits, fastRetransmits, timeouts).
func (c *simTCP) Counters() (uint64, uint64, uint64) {
	return c.retransmits, c.fastRexmits, c.timeouts
}

// pump transmits queued segments while the congestion window allows.
func (c *simTCP) pump() {
	if !c.established || c.closed {
		return
	}
	limit := int(c.cwnd)
	if limit > rwndSegs {
		limit = rwndSegs
	}
	for c.qhead < len(c.queue) && c.inflight.Len() < limit {
		seg := c.queue[c.qhead]
		c.qhead++
		if seg.seq < c.sendBase {
			continue // requeued after a timeout but since acknowledged
		}
		c.transmit(seg, false)
	}
}

func (c *simTCP) transmit(seg *tcpSeg, rexmit bool) {
	seg.ts = c.stack.clock.Now()
	seg.rexmit = seg.rexmit || rexmit
	c.inflight.Put(seg.seq, seg)
	c.segsSent++
	if rexmit {
		c.retransmits++
	}
	c.sendRaw(seg, seg.size)
	c.armRTO()
}

func (c *simTCP) sendRaw(seg *tcpSeg, size int) {
	c.stack.sendPooled(c.laddr, c.raddr, c.stack.hostID, c.raddrID, c.lport, c.rport, size+segHeader, seg)
}

// sendSyn and sendSynAck emit slab-backed handshake segments.
func (c *simTCP) sendSyn() {
	seg := c.newSeg()
	seg.conn, seg.syn = c, true
	c.sendRaw(seg, 0)
}

func (c *simTCP) sendSynAck() {
	seg := c.newSeg()
	seg.conn, seg.synAck = c, true
	c.sendRaw(seg, 0)
}

// Fire implements simclock.EventHandler: the conn itself is the RTO timer's
// handler, so re-arming the timer per ACK allocates nothing.
func (c *simTCP) Fire(time.Duration) { c.onRTO() }

func (c *simTCP) armRTO() {
	c.rtoTimer.Cancel()
	if c.inflight.Len() == 0 {
		c.rtoTimer = simclock.Timer{}
		return
	}
	c.rtoTimer = c.stack.clock.AfterHandler(c.rto, c)
}

func (c *simTCP) onRTO() {
	if c.closed || c.inflight.Len() == 0 {
		return
	}
	c.timeouts++
	c.consecutiveRTOs++
	if c.consecutiveRTOs > maxConsecutiveRTOs {
		// The peer is unreachable or gone; abort like a real TCP would
		// after exhausting its retries.
		c.closed = true
		c.teardown()
		return
	}
	// Collapse the window, retransmit the oldest unacked segment, and put
	// every other unacked segment back at the head of the send queue
	// (go-back-N): a timeout usually means the whole flight is gone, and
	// leaving stale entries in the inflight set would wedge the window.
	c.ssthresh = maxF(c.cwnd/2, 2)
	c.cwnd = 1
	c.dupAcks = 0
	c.rto = minDur(c.rto*2, maxRTO)
	// The ring walks in ascending seq, so the batch is already in send
	// order.
	oldestSeq, _ := c.inflight.Min()
	oldest, _ := c.inflight.Get(oldestSeq)
	requeue := c.requeue[:0]
	for seq, seg := range c.inflight.All() {
		if seq == oldestSeq {
			continue
		}
		seg.rexmit = true // Karn: never RTT-sample these again
		requeue = append(requeue, seg)
		c.inflight.Delete(seq)
	}
	// Prepend in place: grow the queue, shift the existing tail right, and
	// copy the retransmit batch to the front. The scratch slice keeps its
	// storage for the next timeout.
	n := len(requeue)
	c.queue = append(c.queue, requeue...)
	copy(c.queue[c.qhead+n:], c.queue[c.qhead:len(c.queue)-n])
	copy(c.queue[c.qhead:c.qhead+n], requeue)
	c.requeue = requeue[:0]
	c.transmit(oldest, true)
}

// onPacket handles every arrival addressed to this conn: segments from the
// peer and ACKs for our own segments.
func (c *simTCP) onPacket(pkt *netsim.Packet) {
	if c.closed {
		// A closed conn consumes nothing; shard-transit copies still must go
		// back to the pool (a no-op for classic originals).
		c.stack.net.ReleaseTransit(pkt.Payload)
		return
	}
	switch m := pkt.Payload.(type) {
	case *tcpSeg:
		c.onSegment(m, pkt)
	case *tcpAck:
		c.onAck(m)
		// The ACK has been fully consumed; recycle it to the stack that
		// created it. A shard-transit copy has a nil origin — it was never
		// part of any ACK pool — and recycles through the transit pool
		// instead. ACKs from another world (cross-net tests) just get
		// collected.
		if m.origin != nil && m.origin.net == c.stack.net {
			putAck(m)
		} else {
			c.stack.net.ReleaseTransit(m)
		}
	}
}

func (c *simTCP) onSegment(seg *tcpSeg, pkt *netsim.Packet) {
	switch {
	case seg.synAck:
		// Our SYN was answered; the peer's data address is the SYN-ACK's
		// source (the listener accepted on an ephemeral port).
		c.raddr = pkt.From
		c.raddrID = pkt.FromID
		c.rport = pkt.FromPort
		if c.rport == 0 {
			c.rport = pkt.From.Port()
		}
		c.established = true
		if c.onEstablished != nil {
			c.onEstablished()
		}
		c.pump()
		c.stack.net.ReleaseTransit(seg)
		return
	case seg.syn:
		// Listeners handle SYNs; a connected socket ignores them.
		c.stack.net.ReleaseTransit(seg)
		return
	case seg.fin:
		// Peer closed: release our resources too, or an abandoned
		// server-side conn would retransmit into the void forever.
		c.closed = true
		c.teardown()
		c.stack.net.ReleaseTransit(seg)
		return
	}

	// Data segment: buffer, deliver in order, and ACK cumulatively. The ACK
	// echo fields are captured up front: once the segment is released (or
	// delivered — an application callback may itself send, re-leasing the
	// pooled snapshot), its fields are no longer ours to read.
	ackTS, ackEchoOK := seg.ts, !seg.rexmit
	// Old and duplicate segments are dropped — and, as with every drop on
	// the receive path, a shard-transit copy goes straight back to the pool.
	if seg.seq >= c.rcvNext && !c.reorder.Has(seg.seq) {
		c.reorder.Put(seg.seq, seg)
	} else {
		c.stack.net.ReleaseTransit(seg)
	}
	for {
		next, ok := c.reorder.Get(c.rcvNext)
		if !ok {
			break
		}
		c.reorder.Delete(c.rcvNext)
		c.rcvNext++
		c.segsDelivered++
		if c.recv != nil {
			c.recv(next.payload, next.size)
		}
		// The application callback has consumed the payload synchronously
		// (the receiver contract in each payload package's transit.go);
		// recycle the segment snapshot and its nested payload snapshot.
		c.stack.net.ReleaseTransit(next)
	}
	ack := c.stack.getAck()
	ack.cumAck, ack.ts, ack.echoOK = c.rcvNext, ackTS, ackEchoOK
	c.stack.sendPooled(c.laddr, pkt.From, c.stack.hostID, pkt.FromID, c.lport, pkt.FromPort, ackSize, ack)
	if c.stack.net.Sharded() {
		// Sharded sends snapshot the payload synchronously inside Send, so
		// the original never travels: recycle it now. (Classic keeps the
		// recycle-at-consumer path in onPacket, where the original itself
		// is what arrives.)
		putAck(ack)
	}
}

func (c *simTCP) onAck(a *tcpAck) {
	if a.cumAck > c.sendBase {
		// New data acknowledged. Drop everything below the cumulative ACK
		// from the inflight ring: one sweep over the newly acknowledged
		// span, counting the segments it frees for window growth.
		acked := c.inflight.DeleteBelow(a.cumAck)
		c.sendBase = a.cumAck
		c.dupAcks = 0
		c.consecutiveRTOs = 0
		// Karn's algorithm: only sample RTT from segments never
		// retransmitted.
		if a.echoOK && a.ts > 0 {
			c.sampleRTT(c.stack.clock.Now() - a.ts)
		} else if c.srtt > 0 {
			// Forward progress clears exponential RTO backoff even when the
			// ACK cannot be RTT-sampled.
			c.rto = clampRTO(c.srtt + 4*c.rttvar)
		}
		// Window growth: slow start below ssthresh, then AIMD.
		for i := 0; i < acked; i++ {
			if c.cwnd < c.ssthresh {
				c.cwnd++
			} else {
				c.cwnd += 1 / c.cwnd
			}
		}
		c.armRTO()
		c.pump()
		return
	}
	if a.cumAck == c.sendBase && c.inflight.Len() > 0 {
		c.dupAcks++
		if c.dupAcks == 3 {
			// Fast retransmit + multiplicative decrease.
			c.fastRexmits++
			c.ssthresh = maxF(c.cwnd/2, 2)
			c.cwnd = c.ssthresh
			if seg, ok := c.inflight.Get(c.sendBase); ok {
				c.transmit(seg, true)
			}
		}
	}
}

func (c *simTCP) sampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		diff := c.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = clampRTO(c.srtt + 4*c.rttvar)
}

func clampRTO(rto time.Duration) time.Duration {
	if rto < minRTO {
		return minRTO
	}
	if rto > maxRTO {
		return maxRTO
	}
	return rto
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
