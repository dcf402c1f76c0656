package seqwin

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"realtracer/internal/snap"
)

// The ring's contract is equivalence with a built-in map plus an ascending
// walk: these tests replay random operation traces through both, comparing
// Len after every operation and every observable every ten.

// oracle is the reference model: a built-in map.
type oracle[K Key] map[K]int

func (o oracle[K]) sortedKeys() []K { return snap.SortedKeys(map[K]int(o)) }

// checkSame compares every observable of m against o.
func checkSame[K Key](t *testing.T, tag string, m *Map[K, int], o oracle[K]) {
	t.Helper()
	if m.Len() != len(o) {
		t.Fatalf("%s: Len %d, oracle %d", tag, m.Len(), len(o))
	}
	keys := o.sortedKeys()
	min, ok := m.Min()
	if ok != (len(keys) > 0) || (ok && min != keys[0]) {
		t.Fatalf("%s: Min (%d, %v), oracle keys %v", tag, min, ok, keys)
	}
	i := 0
	for k, v := range m.All() {
		if i >= len(keys) || k != keys[i] || v != o[k] {
			t.Fatalf("%s: All yielded (%d, %d) at %d, oracle %v", tag, k, v, i, keys)
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("%s: All yielded %d pairs, oracle %d", tag, i, len(keys))
	}
}

// keyGen draws keys around a moving center: mostly just ahead of it (a
// window sliding forward), sometimes well below the lowest present key, and
// sometimes a jump far ahead that forces the ring to regrow. All keys stay
// inside [lo, lo+span).
type keyGen[K Key] struct {
	rng    *rand.Rand
	lo     K
	center uint64
}

const genSpan = 1 << 13

func (g *keyGen[K]) next() K {
	off := int64(g.center)
	switch g.rng.Intn(20) {
	case 0: // far below: a late retransmission
		off -= int64(g.rng.Intn(1500))
	case 1: // jump ahead: an outage's worth of lost sequence numbers
		g.center += uint64(g.rng.Intn(1000))
		off = int64(g.center)
	default:
		off += int64(g.rng.Intn(48)) - 8
		if g.rng.Intn(4) == 0 {
			g.center++
		}
	}
	if g.center >= genSpan {
		g.center = genSpan / 2
	}
	off = max(0, min(off, genSpan-1))
	return g.lo + K(off)
}

func runTrace[K Key](t *testing.T, seed int64, lo K, ops int) {
	rng := rand.New(rand.NewSource(seed))
	g := &keyGen[K]{rng: rng, lo: lo}
	var m Map[K, int]
	o := oracle[K]{}
	// Lookups and deletes before any Put.
	if _, ok := m.Get(lo); ok || m.Has(lo) || m.DeleteBelow(lo+5) != 0 {
		t.Fatalf("seed %d: empty map reports a key", seed)
	}
	m.Delete(lo)
	checkSame(t, "fresh", &m, o)
	for i := 0; i < ops; i++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 45:
			op = "Put"
			k, v := g.next(), rng.Intn(3) // zero values are real entries
			m.Put(k, v)
			o[k] = v
		case r < 65:
			op = "Get"
			k := g.next()
			v, ok := m.Get(k)
			ov, ook := o[k]
			if ok != ook || v != ov || m.Has(k) != ook {
				t.Fatalf("seed %d op %d: Get(%d) = (%d, %v), oracle (%d, %v)", seed, i, k, v, ok, ov, ook)
			}
		case r < 78:
			op = "Delete"
			k := g.next()
			if keys := o.sortedKeys(); len(keys) > 0 && rng.Intn(2) == 0 {
				k = keys[rng.Intn(len(keys))]
			}
			m.Delete(k)
			delete(o, k)
		case r < 88:
			op = "DeleteBelow"
			cut := g.next()
			if min, ok := m.Min(); ok && rng.Intn(3) == 0 {
				cut = min + K(rng.Intn(64))
			}
			want := 0
			for k := range o {
				if k < cut {
					delete(o, k)
					want++
				}
			}
			if got := m.DeleteBelow(cut); got != want {
				t.Fatalf("seed %d op %d: DeleteBelow(%d) removed %d, oracle %d", seed, i, cut, got, want)
			}
		case r < 89:
			op = "Clear"
			m.Clear()
			clear(o)
		default:
			op = "All"
			stopAt := rng.Intn(len(o) + 4)
			seen := 0
			var prev K
			for k, v := range m.All() {
				if seen > 0 && k <= prev {
					t.Fatalf("seed %d op %d: All yielded %d after %d", seed, i, k, prev)
				}
				if ov, ok := o[k]; !ok || ov != v {
					t.Fatalf("seed %d op %d: All yielded (%d, %d), oracle (%d, %v)", seed, i, k, v, ov, ok)
				}
				prev = k
				seen++
				switch rng.Intn(6) {
				case 0, 1:
					m.Delete(k)
					delete(o, k)
				case 2:
					m.Put(k, v+1)
					o[k] = v + 1
				}
				if seen == stopAt {
					break
				}
			}
		}
		if m.Len() != len(o) {
			t.Fatalf("seed %d op %d (%s): Len %d, oracle %d", seed, i, op, m.Len(), len(o))
		}
		if i%10 == 0 || i == ops-1 {
			checkSame(t, fmt.Sprintf("seed %d op %d (%s)", seed, i, op), &m, o)
		}
	}
}

// TestSeqwinMatchesMap replays random Put, Get, Delete, DeleteBelow, Min,
// Clear and All-with-delete traces through the ring and a built-in map, for
// both key widths and at both ends of the key space.
func TestSeqwinMatchesMap(t *testing.T) {
	traces, ops := 40, 1500
	if testing.Short() {
		traces = 8
	}
	for seed := int64(0); seed < int64(traces); seed++ {
		runTrace[uint32](t, seed, 0, ops)
		runTrace[uint32](t, seed, math.MaxUint32-genSpan+1, ops)
		runTrace[uint64](t, seed, 0, ops)
		runTrace[uint64](t, seed, math.MaxUint64-genSpan+1, ops)
	}
}

// TestPutBelowBaseKeepsRing pins the hole-fill path of the TCP reorder
// buffer: a Put below the lowest key that still fits the ring moves the
// window without reallocating.
func TestPutBelowBaseKeepsRing(t *testing.T) {
	var m Map[uint64, *int]
	x := new(int)
	for k := uint64(100); k < 110; k++ {
		m.Put(k, x)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.Put(99, x)
		m.Delete(99)
		m.Put(95, x)
		m.DeleteBelow(100)
	})
	if allocs != 0 {
		t.Fatalf("Put below base allocated %.1f times per run", allocs)
	}
}

// sortedMapBytes encodes o as snap.SortedMap does.
func sortedMapBytes(o map[uint32]int, withVal bool) []byte {
	c := snap.NewEncoder()
	var val func(*snap.Codec, *int)
	if withVal {
		val = (*snap.Codec).Int
	}
	snap.SortedMap(c, &o, (*snap.Codec).U32, val)
	return c.Encoded()
}

// TestSnapMatchesSortedMap requires Snap to write the bytes snap.SortedMap
// writes for the same content, with and without values, and to decode them
// back to the same content.
func TestSnapMatchesSortedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var m Map[uint32, int]
		o := map[uint32]int{}
		base := uint32(rng.Intn(1 << 20))
		for i := rng.Intn(300); i > 0; i-- {
			k := base + uint32(rng.Intn(2000))
			v := rng.Intn(5)
			m.Put(k, v)
			o[k] = v
		}
		for _, withVal := range []bool{true, false} {
			var val func(*snap.Codec, *int)
			if withVal {
				val = (*snap.Codec).Int
			}
			enc := snap.NewEncoder()
			Snap(enc, &m, (*snap.Codec).U32, val)
			want := sortedMapBytes(o, withVal)
			if !bytes.Equal(enc.Encoded(), want) {
				t.Fatalf("trial %d (values %v): Snap wrote %d bytes, SortedMap %d", trial, withVal, len(enc.Encoded()), len(want))
			}
			var back Map[uint32, int]
			back.Put(7, 7) // decoding clears what was there
			dec := snap.NewDecoder(want)
			Snap(dec, &back, (*snap.Codec).U32, val)
			if dec.Err() != nil || dec.Left() != 0 {
				t.Fatalf("trial %d: decode err %v, %d byte(s) left", trial, dec.Err(), dec.Left())
			}
			wantBack := o
			if !withVal {
				wantBack = map[uint32]int{}
				for k := range o {
					wantBack[k] = 0
				}
			}
			checkSame(t, "decoded", &back, wantBack)
		}
	}
}

// TestSnapValuesRoundTrip runs a map whose values carry their own key.
func TestSnapValuesRoundTrip(t *testing.T) {
	type pkt struct{ seq uint32 }
	var m Map[uint32, *pkt]
	for _, s := range []uint32{40, 41, 45, 60} {
		m.Put(s, &pkt{seq: s})
	}
	val := func(c *snap.Codec, p **pkt) {
		if *p == nil {
			*p = &pkt{}
		}
		c.U32(&(*p).seq)
	}
	keyOf := func(p *pkt) uint32 { return p.seq }
	enc := snap.NewEncoder()
	SnapValues(enc, &m, val, keyOf)
	if got, want := len(enc.Encoded()), 4+4*4; got != want {
		t.Fatalf("encoded %d bytes, want %d (count + 4 values)", got, want)
	}
	var back Map[uint32, *pkt]
	dec := snap.NewDecoder(enc.Encoded())
	SnapValues(dec, &back, val, keyOf)
	if dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	var keys []uint32
	for k, p := range back.All() {
		if p.seq != k {
			t.Fatalf("value for key %d carries seq %d", k, p.seq)
		}
		keys = append(keys, k)
	}
	if !slices.Equal(keys, []uint32{40, 41, 45, 60}) {
		t.Fatalf("decoded keys %v", keys)
	}
}

// TestSnapRejectsHostileKeys requires a decoder to fail, without building a
// ring for the whole key space, on keys out of order, duplicated, or
// spanning more than MaxSnapSpan.
func TestSnapRejectsHostileKeys(t *testing.T) {
	cases := []struct {
		name string
		keys []uint32
		want string
	}{
		{"descending", []uint32{9, 8}, "strictly ascending"},
		{"duplicate", []uint32{5, 5}, "strictly ascending"},
		{"whole key space", []uint32{0, math.MaxUint32}, "span"},
		{"just past the cap", []uint32{10, 10 + MaxSnapSpan}, "span"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := snap.NewEncoder()
			enc.Len(len(tc.keys))
			for _, k := range tc.keys {
				enc.U32(&k)
			}
			var m Map[uint32, struct{}]
			dec := snap.NewDecoder(enc.Encoded())
			Snap(dec, &m, (*snap.Codec).U32, nil)
			if dec.Err() == nil || !strings.Contains(dec.Err().Error(), tc.want) {
				t.Fatalf("decode error %v, want one mentioning %q", dec.Err(), tc.want)
			}
			if len(m.slots) > 2*MaxSnapSpan {
				t.Fatalf("rejected snapshot still built a %d-slot ring", len(m.slots))
			}
		})
	}
	// The widest span the cap admits still decodes.
	enc := snap.NewEncoder()
	enc.Len(2)
	for _, k := range []uint32{10, 10 + MaxSnapSpan - 1} {
		enc.U32(&k)
	}
	var m Map[uint32, struct{}]
	dec := snap.NewDecoder(enc.Encoded())
	Snap(dec, &m, (*snap.Codec).U32, nil)
	if dec.Err() != nil || m.Len() != 2 {
		t.Fatalf("span of exactly MaxSnapSpan: err %v, Len %d", dec.Err(), m.Len())
	}
}
