package vclock

import (
	"fmt"

	"realtracer/internal/simclock"
	"realtracer/internal/snap"
)

// Snap runs the handle's pending event through c as an (armed, At, seq)
// record; see simclock.Clock.SnapTimer, which re-arms ev on restore. Only
// simulated clocks checkpoint: on any other clock the handle encodes as
// unarmed, and decoding an armed record fails c.
func (h *Handle) Snap(c *snap.Codec, clk Clock, ev simclock.EventHandler) {
	if sim, ok := clk.(Sim); ok {
		sim.C.SnapTimer(c, &h.sim, ev)
		return
	}
	armed := false
	c.Bool(&armed)
	if armed {
		c.Fail(fmt.Errorf("vclock: restore of an armed timer onto non-simulated clock %T", clk))
	}
}
