package transport

import (
	"testing"
	"time"

	"realtracer/internal/netsim"
	"realtracer/internal/simclock"
)

// twoHostWorld builds the minimal simulated internet: two hosts, a clean
// route, one UDP receiver on b and a connected sender on a.
func twoHostWorld() (*simclock.Clock, *netsim.Network, Conn, *int) {
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute{}, 1)
	n.AddHost(netsim.HostConfig{Name: "a", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "b", Access: netsim.DefaultAccessProfile(netsim.AccessT1LAN)})
	sa := NewStack(n, "a")
	sb := NewStack(n, "b")
	got := 0
	sb.ListenUDP(7000, func(string, any, int) { got++ })
	conn := sa.DialUDP("b:7000")
	return clock, n, conn, &got
}

// packetAllocBudget pins the steady-state allocations per delivered packet
// on the two-host world. The zero-allocation core (pooled packets, pooled
// clock events, interned host IDs) makes the true steady state 0; the
// budget leaves a little headroom for runtime bookkeeping so the guard
// fails on a real regression, not on noise.
const packetAllocBudget = 0.5

// TestSteadyStateAllocBudget is the alloc-budget guard: if a change to
// simclock/netsim/transport reintroduces per-packet allocation (a fresh
// closure, an unpooled packet, a map rebuild), this fails before any
// benchmark has to notice.
func TestSteadyStateAllocBudget(t *testing.T) {
	clock, _, conn, got := twoHostWorld()
	// Warm the pools: first sends grow the free-lists and the event heap.
	for i := 0; i < 512; i++ {
		conn.Send(nil, 500)
		clock.Run()
	}
	before := *got
	avg := testing.AllocsPerRun(2000, func() {
		conn.Send(nil, 500)
		clock.Run()
	})
	if *got-before < 2000 {
		t.Fatalf("deliveries = %d, want 2000 (world misconfigured)", *got-before)
	}
	if avg > packetAllocBudget {
		t.Fatalf("steady-state allocs per delivered packet = %.2f, budget %.2f", avg, packetAllocBudget)
	}
}

// BenchmarkPacketHopUDP is the per-packet microbenchmark: one datagram
// offered, shaped and delivered per iteration. Run with -benchmem; the CI
// bench smoke stage tracks it alongside the campaign benches.
func BenchmarkPacketHopUDP(b *testing.B) {
	clock, _, conn, _ := twoHostWorld()
	for i := 0; i < 512; i++ {
		conn.Send(nil, 500)
		clock.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.Send(nil, 500)
		clock.Run()
	}
}

// BenchmarkPacketHopTCP drives one data segment plus its ACK through the
// simulated TCP per iteration (established connection, no loss).
func BenchmarkPacketHopTCP(b *testing.B) {
	clock := simclock.New()
	n := netsim.New(clock, netsim.StaticRoute{}, 1)
	n.AddHost(netsim.HostConfig{Name: "a", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "b", Access: netsim.DefaultAccessProfile(netsim.AccessT1LAN)})
	sa := NewStack(n, "a")
	sb := NewStack(n, "b")
	sb.Listen(554, func(c Conn) { c.SetReceiver(func(any, int) {}) })
	var conn Conn
	sa.DialTCP("b:554", func(c Conn, err error) {
		if err != nil {
			b.Fatalf("dial: %v", err)
		}
		conn = c
	})
	clock.Run()
	if conn == nil {
		b.Fatal("handshake did not complete")
	}
	for i := 0; i < 512; i++ {
		conn.Send(nil, 500)
		clock.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.Send(nil, 500)
		clock.Run()
	}
}

// tcpWindowWorld builds a bulk TCP transfer over a lossy, jittery route: an
// established conn from a to b whose sender keeps its window full, so the
// inflight set holds up to rwndSegs segments and the route's losses drive
// fast retransmits, timeouts and reorder-buffer drains. step offers one
// more message and runs the clock until the sender's backlog is back to
// two windows; got counts in-order deliveries at b.
func tcpWindowWorld(tb testing.TB) (step func(), c *simTCP, got *int) {
	clock := simclock.New()
	route := netsim.Route{OneWayDelay: 20 * time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: 0.02}
	n := netsim.New(clock, netsim.StaticRoute(route), 3)
	n.AddHost(netsim.HostConfig{Name: "a", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	n.AddHost(netsim.HostConfig{Name: "b", Access: netsim.DefaultAccessProfile(netsim.AccessServer)})
	sa := NewStack(n, "a")
	sb := NewStack(n, "b")
	got = new(int)
	sb.Listen(554, func(c Conn) { c.SetReceiver(func(any, int) { *got++ }) })
	sa.DialTCP("b:554", func(conn Conn, err error) {
		if err != nil {
			tb.Fatalf("dial: %v", err)
		}
		c = conn.(*simTCP)
	})
	clock.Run()
	if c == nil {
		tb.Fatal("handshake did not complete")
	}
	step = func() {
		c.Send(nil, 1000)
		for c.QueueDepth() > 2*rwndSegs {
			if !clock.Step() {
				tb.Fatal("bulk transfer stalled with a backlog")
			}
		}
	}
	return step, c, got
}

// TestTCPWindowAllocBudget holds the full-window TCP path — inflight ring,
// cumulative-ACK sweeps, fast retransmit, timeout requeue and reorder
// drains — to the per-packet allocation budget of the two-host world.
func TestTCPWindowAllocBudget(t *testing.T) {
	step, c, got := tcpWindowWorld(t)
	for i := 0; i < 4096; i++ {
		step()
	}
	before := *got
	avg := testing.AllocsPerRun(8192, step)
	if *got-before < 8192 {
		t.Fatalf("deliveries = %d, want at least 8192 (world misconfigured)", *got-before)
	}
	if c.fastRexmits == 0 || c.timeouts == 0 {
		t.Fatalf("fast retransmits %d, timeouts %d: the route must exercise both", c.fastRexmits, c.timeouts)
	}
	if avg > packetAllocBudget {
		t.Fatalf("full-window allocs per delivered segment = %.2f, budget %.2f", avg, packetAllocBudget)
	}
}

// BenchmarkTCPWindow is the full-window counterpart of BenchmarkPacketHopTCP:
// each iteration offers one segment to a bulk sender that keeps up to
// rwndSegs segments in flight over a lossy route, so per-ACK sweeps of the
// inflight set and loss recovery are in the measured path.
func BenchmarkTCPWindow(b *testing.B) {
	step, c, _ := tcpWindowWorld(b)
	for i := 0; i < 4096; i++ {
		step()
	}
	rexmits := c.retransmits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(c.retransmits-rexmits)/float64(b.N), "rexmits/op")
}
