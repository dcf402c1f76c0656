package stats

import (
	"fmt"

	"realtracer/internal/snap"
)

// Binary round-trip codecs for the streaming accumulators, so partial
// figure aggregates can ride along in a world checkpoint and merge
// identically after a resume. Every codec is field-exact: floats persist as
// bit patterns, the Sketch's exact path keeps its insertion order, and map
// contents serialize in sorted key order so the bytes of a given
// accumulator state are deterministic.

// Snap runs the accumulator's state through c.
func (w *Welford) Snap(c *snap.Codec) {
	c.Tag("welford")
	c.U64(&w.n)
	c.F64(&w.mean)
	c.F64(&w.m2)
	c.F64(&w.min)
	c.F64(&w.max)
}

// snapBins runs one sign's bin map.
func snapBins(c *snap.Codec, m *map[int]uint64) {
	snap.SortedMap(c, m, snap.I64Of[int], (*snap.Codec).U64)
}

// Snap runs the sketch's state through c: construction parameters plus
// either the raw exact-path sample (in insertion order) or the bin maps.
// Decoding replaces the whole sketch.
func (s *Sketch) Snap(c *snap.Codec) {
	c.Tag("sketch")
	c.F64(&s.alpha)
	c.Int(&s.exactCap)
	if c.Loading() {
		*s = *NewSketchAccuracy(s.alpha, s.exactCap)
	}
	c.Bool(&s.binned)
	if s.binned {
		snapBins(c, &s.pos)
		snapBins(c, &s.neg)
		c.U64(&s.zero)
	} else {
		snap.Slice(c, &s.exact, (*snap.Codec).F64)
	}
	c.U64(&s.n)
	c.F64(&s.min)
	c.F64(&s.max)
	if c.Loading() && c.Err() == nil && !s.binned && len(s.exact) != int(s.n) {
		c.Fail(fmt.Errorf("stats: sketch exact path holds %d values for n=%d", len(s.exact), s.n))
	}
}

// Snap runs the distribution's paired accumulators through c.
func (d *Dist) Snap(c *snap.Codec) {
	c.Tag("dist")
	d.W.Snap(c)
	if d.S == nil {
		d.S = &Sketch{}
	}
	d.S.Snap(c)
}

// Snap runs the grouped distributions through c in sorted key order.
// Decoding replaces the whole group set.
func (g *Grouped) Snap(c *snap.Codec) {
	c.Tag("grouped")
	if c.Loading() {
		g.m = nil
	}
	snap.SortedMap(c, &g.m, (*snap.Codec).Str, func(c *snap.Codec, d **Dist) {
		if *d == nil {
			*d = &Dist{}
		}
		(*d).Snap(c)
	})
}

// Snap runs the tally through c in sorted key order. Decoding replaces the
// whole tally.
func (t *Counter) Snap(c *snap.Codec) {
	c.Tag("counter")
	if c.Loading() {
		t.m = nil
	}
	snap.SortedMap(c, &t.m, (*snap.Codec).Str, (*snap.Codec).Int)
}
