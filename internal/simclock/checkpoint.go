package simclock

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"realtracer/internal/snap"
)

// This file is the scheduler half of the world-checkpoint seam: the clock's
// scalar state (now, seq, fired) can be read and restored, the pending
// queue can be enumerated as (At, seq, handler) records and re-armed with
// the original sequence numbers, and a registry of EventHandler types
// declares which handlers a checkpoint knows how to persist.
//
// The contract: every pending event at checkpoint time must be a pooled
// handler event of a registered type. Each registered type has exactly one
// owner in the serialized world state (a connection's RTO, a session's pace
// tick, an in-flight packet, ...); the owner runs the event's slot through
// SnapTimer or SnapSlot alongside its own fields, which re-arms it on
// restore. Closure
// events (At/After) carry unserializable captured state — callers drain the
// clock until PendingClosures reaches zero before checkpointing, or fail
// with a clear error.
//
// Restored events keep their original (At, seq) pairs and the clock's seq
// counter resumes from the checkpointed value, so the firing order after a
// resume — and the seq of every event scheduled later — is bit-identical to
// the straight-through run.

// eventKinds maps registered EventHandler concrete types to their stable
// names. Registration happens in package init functions, so the map is
// read-only by the time any clock runs.
var eventKinds = map[reflect.Type]string{}

// RegisterEventKind declares that handlers of proto's concrete type are
// persisted by some owner in a world checkpoint. name is the stable label
// used in diagnostics. Registering the same type twice panics.
func RegisterEventKind(name string, proto EventHandler) {
	t := reflect.TypeOf(proto)
	if prev, ok := eventKinds[t]; ok {
		panic(fmt.Sprintf("simclock: event kind %v already registered as %q", t, prev))
	}
	eventKinds[t] = name
}

// EventKindOf returns the registered kind name for a handler's concrete
// type, or "", false when the type was never registered.
func EventKindOf(h EventHandler) (string, bool) {
	name, ok := eventKinds[reflect.TypeOf(h)]
	return name, ok
}

// PendingClosures reports how many live pending closure (At/After) events
// the clock holds. A checkpoint requires zero: closures cannot round-trip.
func (c *Clock) PendingClosures() int { return c.closures }

// Seq returns the scheduling sequence counter (the seq the next scheduled
// event will receive).
func (c *Clock) Seq() uint64 { return c.seq }

// PendingEvent is one live scheduled event as seen by a checkpoint walk.
type PendingEvent struct {
	// Timer addresses the event; its When reports the (At, seq) slot.
	Timer Timer
	// Handler is the pooled event's handler; nil for a closure event.
	Handler EventHandler
}

// Pendings returns every live pending event in seq order (scheduling
// order). Cancelled tombstones are skipped, not reaped; the walk mutates
// nothing, so it can run mid-simulation.
func (c *Clock) Pendings() []PendingEvent {
	out := make([]PendingEvent, 0, c.live)
	add := func(e *Event) {
		if e == nil || e.off {
			return
		}
		out = append(out, PendingEvent{Timer: Timer{e: e, gen: e.gen}, Handler: e.h})
	}
	for _, e := range c.near {
		add(e)
	}
	for _, e := range c.over {
		add(e)
	}
	for _, e := range c.events {
		add(e)
	}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for idx := 0; idx < wheelSlots; idx++ {
			for e := c.slot[lvl][idx]; e != nil; e = e.nxt {
				add(e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Timer.e.seq < out[j].Timer.e.seq })
	return out
}

// CheckPersistable verifies the clock is in a checkpointable state: no live
// closure events, and every pending handler's concrete type registered via
// RegisterEventKind. The error names the first offender.
func (c *Clock) CheckPersistable() error {
	if c.closures > 0 {
		return fmt.Errorf("simclock: %d closure event(s) pending; closures cannot be checkpointed (drain the clock first)", c.closures)
	}
	for _, p := range c.Pendings() {
		at, seq, _ := p.Timer.When()
		if p.Handler == nil {
			return fmt.Errorf("simclock: pending closure event at %v (seq %d) cannot be checkpointed", at, seq)
		}
		if _, ok := EventKindOf(p.Handler); !ok {
			return fmt.Errorf("simclock: pending event at %v (seq %d) has unregistered handler type %T", at, seq, p.Handler)
		}
	}
	return nil
}

// Reset wipes every pending event and positions the clock at the restored
// scalar state: virtual time now, sequence counter seq, fired events fired.
// The queue structures come back as an empty wheel; the caller re-arms the
// checkpointed events through SnapTimer and SnapSlot.
func (c *Clock) Reset(now time.Duration, seq, fired uint64) {
	c.now, c.seq, c.fired = now, seq, fired
	c.live, c.closures = 0, 0
	c.firing = nil
	c.free = c.free[:0]
	c.near = c.near[:0]
	c.over = c.over[:0]
	c.events = c.events[:0]
	c.nearEnd, c.cur = 0, 0
	for lvl := range c.slot {
		for idx := range c.slot[lvl] {
			c.slot[lvl][idx] = nil
		}
		c.occ[lvl] = 0
	}
}

// SnapSlot runs one armed event's slot, (At, seq), through sc. Encoding
// writes t's slot. Decoding reads a slot and re-arms h there with the
// original sequence number, storing the new timer in *t: the clock's own
// counter is not advanced, so events scheduled after the restore receive
// the same seqs they would have in a straight-through run. A slot this
// clock could not have issued — before now, or at or past the restored seq
// counter — fails sc instead of arming.
func (c *Clock) SnapSlot(sc *snap.Codec, t *Timer, h EventHandler) {
	at, seq, _ := t.When()
	sc.Dur(&at)
	sc.U64(&seq)
	if !sc.Loading() || sc.Err() != nil {
		return
	}
	switch {
	case at < c.now:
		sc.Fail(fmt.Errorf("simclock: checkpointed event at %v before now %v", at, c.now))
	case seq >= c.seq:
		sc.Fail(fmt.Errorf("simclock: checkpointed event seq %d not below clock seq %d", seq, c.seq))
	default:
		*t = c.arm(at, seq, h)
	}
}

// SnapTimer runs an owner's timer through sc as (armed, At, seq): SnapSlot
// behind an armed flag. Fired, cancelled and zero timers encode as unarmed
// — exactly the states in which re-arming on restore would be wrong — and
// decode to the zero Timer.
func (c *Clock) SnapTimer(sc *snap.Codec, t *Timer, h EventHandler) {
	armed := t.Active()
	sc.Bool(&armed)
	if armed {
		c.SnapSlot(sc, t, h)
	} else if sc.Loading() {
		*t = Timer{}
	}
}

// arm schedules h.Fire at absolute time at with an explicit sequence
// number, which must come from a checkpointed event of this clock.
func (c *Clock) arm(at time.Duration, seq uint64, h EventHandler) Timer {
	if h == nil {
		panic("simclock: arm with nil handler")
	}
	var e *Event
	if k := len(c.free); k > 0 {
		e = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		e = &Event{}
	}
	e.At = at
	e.Fn = nil
	e.h = h
	e.clk = c
	e.seq = seq
	e.off = false
	e.pooled = true
	c.live++
	if c.heapMode {
		c.heapPush(e)
	} else {
		c.wheelAdd(e)
	}
	return Timer{e: e, gen: e.gen}
}

// When reports the scheduled (At, seq) of the timer's event, with ok false
// for a fired, cancelled, stale or zero handle.
func (t Timer) When() (at time.Duration, seq uint64, ok bool) {
	if !t.Active() {
		return 0, 0, false
	}
	return t.e.At, t.e.seq, true
}
