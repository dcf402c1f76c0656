// Package seqwin is a map keyed by sequence numbers that live in a sliding
// window: TCP's inflight set and reorder buffer, the server's NACK
// retransmit history, and the player's FEC and NACK sets. Their keys are
// dense and move forward, so a power-of-two ring indexed by key & mask
// serves Get, Has, Put and Delete in O(1) without hashing, and walks its
// keys in ascending order for free.
package seqwin

import (
	"fmt"
	"iter"

	"realtracer/internal/snap"
)

// Key is a sequence number type.
type Key interface{ ~uint32 | ~uint64 }

// Map is a sequence-keyed map. Its zero value is empty and ready to use.
// Present keys span [base, top]; the ring holds at least that many slots
// and doubles only when a Put widens the span past it. Memory therefore
// follows the key span, not the key count: keep the window bounded, as
// every caller does by deleting below a moving floor.
type Map[K Key, V any] struct {
	slots []slot[V] // power-of-two ring; slot k&mask holds key k
	mask  uint64
	base  K // lowest present key (valid when n > 0)
	top   K // highest present key (valid when n > 0)
	n     int
}

// slot carries a presence flag of its own: zero values (a NACK try count
// of 0, a restored nil packet) are legitimate entries.
type slot[V any] struct {
	v  V
	ok bool
}

// minSlots is the ring size the first Put allocates.
const minSlots = 16

// Len returns the number of keys present.
func (m *Map[K, V]) Len() int { return m.n }

// Min returns the lowest key present; ok is false when m is empty.
func (m *Map[K, V]) Min() (k K, ok bool) { return m.base, m.n > 0 }

// slot returns the slot holding k, or nil when k lies outside the present
// span.
func (m *Map[K, V]) slot(k K) *slot[V] {
	if m.n == 0 || k < m.base || k > m.top {
		return nil
	}
	return &m.slots[uint64(k)&m.mask]
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (v V, ok bool) {
	if s := m.slot(k); s != nil && s.ok {
		return s.v, true
	}
	return v, false
}

// Has reports whether k is present.
func (m *Map[K, V]) Has(k K) bool {
	s := m.slot(k)
	return s != nil && s.ok
}

// Put stores v under k, replacing any value already there.
func (m *Map[K, V]) Put(k K, v V) {
	switch {
	case m.n == 0:
		if m.slots == nil {
			m.grow(minSlots)
		}
		m.base, m.top = k, k
	case k < m.base:
		if uint64(m.top-k) >= uint64(len(m.slots)) {
			m.grow(uint64(m.top-k) + 1)
		}
		m.base = k
	case k > m.top:
		if uint64(k-m.base) >= uint64(len(m.slots)) {
			m.grow(uint64(k-m.base) + 1)
		}
		m.top = k
	}
	s := &m.slots[uint64(k)&m.mask]
	if !s.ok {
		s.ok = true
		m.n++
	}
	s.v = v
}

// maxSlots bounds the ring: a span this wide means a caller stopped
// expiring its window, a bug rather than a workload.
const maxSlots = 1 << 30

// grow resizes the ring to the smallest power of two holding span keys and
// re-homes the present keys.
func (m *Map[K, V]) grow(span uint64) {
	if span > maxSlots {
		panic(fmt.Sprintf("seqwin: key span %d exceeds %d slots", span, maxSlots))
	}
	size := uint64(minSlots)
	for size < span {
		size <<= 1
	}
	old, oldMask := m.slots, m.mask
	m.slots, m.mask = make([]slot[V], size), size-1
	if m.n == 0 {
		return
	}
	for k := m.base; ; k++ {
		if s := old[uint64(k)&oldMask]; s.ok {
			m.slots[uint64(k)&m.mask] = s
		}
		if k == m.top {
			return
		}
	}
}

// Delete removes k if present.
func (m *Map[K, V]) Delete(k K) {
	s := m.slot(k)
	if s == nil || !s.ok {
		return
	}
	*s = slot[V]{}
	m.n--
	switch {
	case m.n == 0:
	case k == m.base:
		m.base = m.next(k + 1)
	case k == m.top:
		for m.top--; !m.slots[uint64(m.top)&m.mask].ok; m.top-- {
		}
	}
}

// next returns the lowest present key at or above k; m must hold one.
func (m *Map[K, V]) next(k K) K {
	for !m.slots[uint64(k)&m.mask].ok {
		k++
	}
	return k
}

// DeleteBelow removes every key below cut and returns how many it removed.
// Its cost is the span it sweeps, not the ring size.
func (m *Map[K, V]) DeleteBelow(cut K) int {
	if m.n == 0 || cut <= m.base {
		return 0
	}
	if cut > m.top {
		removed := m.n
		m.Clear()
		return removed
	}
	removed := 0
	for k := m.base; k < cut; k++ {
		if s := &m.slots[uint64(k)&m.mask]; s.ok {
			*s = slot[V]{}
			removed++
		}
	}
	m.n -= removed
	m.base = m.next(cut)
	return removed
}

// Clear removes every key and keeps the ring for reuse.
func (m *Map[K, V]) Clear() {
	if m.n == 0 {
		return
	}
	for k := m.base; ; k++ {
		m.slots[uint64(k)&m.mask] = slot[V]{}
		if k == m.top {
			break
		}
	}
	m.n = 0
}

// All yields the present (key, value) pairs in ascending key order. The
// loop body may Delete the key it was given, or Put a new value under it;
// any other change to m ends the walk in an unspecified state.
func (m *Map[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		if m.n == 0 {
			return
		}
		for k := m.base; ; k++ {
			if s := m.slots[uint64(k)&m.mask]; s.ok && !yield(k, s.v) {
				return
			}
			if m.n == 0 || k >= m.top {
				return
			}
		}
	}
}

// MaxSnapSpan bounds the key span a decoded snapshot may build, so a
// hostile snapshot (keys 0 and 2^32-1 in one map) fails instead of
// allocating a ring for the whole key space. The widest span any test or
// benchmark run builds is 8,281 keys: a player's FEC window under
// sustained heavy loss (measured over go test ./..., the root package's
// benchmarks and the four perfbench workloads at seeds 1-3). The cap sits
// 8x above that; a ring that wide is 64Ki slots, 1 MiB for pointer values.
const MaxSnapSpan = 1 << 16

// Snap runs m through c as snap.SortedMap lays out a built-in map: a count,
// then (key, value) records in ascending key order. val may be nil for a
// set: only keys are encoded, and decoded entries hold V's zero value. A
// decoder clears m first and fails c when the keys are not strictly
// ascending or span more than MaxSnapSpan.
func Snap[K Key, V any](c *snap.Codec, m *Map[K, V], key func(*snap.Codec, *K), val func(*snap.Codec, *V)) {
	run(c, m, func(c *snap.Codec, k *K, v *V) {
		key(c, k)
		if val != nil {
			val(c, v)
		}
	})
}

// SnapValues runs m through c as a count, then the values alone in
// ascending key order: for maps whose values carry their own key. A decoded
// value is stored under keyOf(value), with the same checks as Snap.
func SnapValues[K Key, V any](c *snap.Codec, m *Map[K, V], val func(*snap.Codec, *V), keyOf func(V) K) {
	run(c, m, func(c *snap.Codec, k *K, v *V) {
		val(c, v)
		if c.Loading() {
			*k = keyOf(*v)
		}
	})
}

// run is the shared walk behind Snap and SnapValues: rec runs one record,
// decoding into or encoding from the (k, v) scratch pair. One pair serves
// every entry because rec takes pointers, so per-entry variables would
// each escape to the heap.
func run[K Key, V any](c *snap.Codec, m *Map[K, V], rec func(c *snap.Codec, k *K, v *V)) {
	var k K
	var v V
	if !c.Loading() {
		c.Len(m.n)
		for k, v = range m.All() {
			rec(c, &k, &v)
		}
		return
	}
	n := c.Len(0)
	m.Clear()
	var zk K
	var zv V
	for i := 0; i < n && c.Err() == nil; i++ {
		k, v = zk, zv
		rec(c, &k, &v)
		if c.Err() != nil {
			return
		}
		if i > 0 && k <= m.top {
			c.Fail(fmt.Errorf("seqwin: snapshot key %d after %d: keys must be strictly ascending", k, m.top))
			return
		}
		if i > 0 && uint64(k-m.base) >= MaxSnapSpan {
			c.Fail(fmt.Errorf("seqwin: snapshot keys %d..%d span more than %d", m.base, k, MaxSnapSpan))
			return
		}
		m.Put(k, v)
	}
}
