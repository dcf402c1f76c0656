package tracer

import (
	"fmt"

	"realtracer/internal/player"
	"realtracer/internal/rdt"
	"realtracer/internal/simclock"
	"realtracer/internal/snap"
	"realtracer/internal/transport"
)

// Two event kinds belong to the tracer: the not-yet-started session (the
// world arms the Tracer itself at its start instant) and the inter-clip
// think-time pause.
func init() {
	simclock.RegisterEventKind("tracer.run", (*Tracer)(nil))
	simclock.RegisterEventKind("tracer.pause", (*tracerArm)(nil))
}

// Snap runs the tracer's session progress through c. The playlist, user
// and hooks are template state the world rebuilds deterministically from its
// Options; only the walk position, the in-flight clip's identity (which
// SelectServer may have re-homed) and the player engine persist. Decoding
// overlays a template-built Tracer (fresh from New with the same Config the
// original had). The arenas restore empty: checkpointed packets and frames
// are carried by value elsewhere, so arena cells hold no restored state and
// refill as the session proceeds.
func (t *Tracer) Snap(c *snap.Codec, stack *transport.Stack, app transport.AppCodec, tbl *transport.ConnTable) {
	c.Tag("tracer")
	c.Int(&t.idx)
	c.Int(&t.played)
	c.Int(&t.rated)
	c.Bool(&t.stopped)
	c.Int(&t.ai)
	snapEntry(c, &t.curEntry)
	c.Dur(&t.curStarted)
	t.pause.Snap(c, t.cfg.Clock, (*tracerArm)(t))
	hasPlayer := t.pl != nil
	c.Bool(&hasPlayer)
	if !hasPlayer {
		return
	}
	if c.Loading() {
		if c.Err() != nil {
			return
		}
		if t.ai < 0 || t.ai >= len(t.arenas) {
			c.Fail(fmt.Errorf("tracer: checkpoint arena index %d out of range", t.ai))
			return
		}
		if t.arenas[t.ai] == nil {
			t.arenas[t.ai] = &rdt.Arena{}
		}
		t.pl = player.New(player.Config{
			Clock:  t.cfg.Clock,
			Net:    t.cfg.Net,
			CPU:    player.PCClasses()[t.cfg.User.PCClass],
			Rand:   t.cfg.Rand,
			Arena:  t.arenas[t.ai],
			OnDone: t.onDone,
		})
	}
	t.pl.Snap(c, stack, app, tbl)
}

func snapEntry(c *snap.Codec, e *Entry) {
	c.Str(&e.URL)
	c.Str(&e.ControlAddr)
	c.Str(&e.Site.Name)
	c.Str(&e.Site.Host)
	c.Str(&e.Site.Country)
	snap.I64Of(c, &e.Site.Region)
	c.F64(&e.Site.Unavailability)
	c.Int(&e.Site.Clips)
}
