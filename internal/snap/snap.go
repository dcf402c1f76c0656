// Package snap is the binary codec substrate for world checkpoints. A
// Codec runs in one of two directions: an encoder appends fields to an
// in-memory buffer, a decoder consumes them from an in-memory snapshot.
// Every field method takes a pointer — c.U64(&x) writes x when encoding and
// overwrites it when decoding — so each checkpointed type spells out its
// layout exactly once, in a single function that serves both directions.
// Restore-only wiring (re-registering connections, resolving references,
// re-deriving RNG streams) lives in `if c.Loading()` blocks inside those
// layout functions, or in a short separate function where that reads
// better.
//
// The format favours debuggability over size: fixed-width little-endian
// integers, length-prefixed byte strings, and section tags that make a
// decoder desynchronized from its encoder fail fast with the section names
// of both sides, instead of decoding garbage.
//
// Decoding errors are sticky: after the first failure every field decodes
// to its zero value and Err reports the original cause, so layout functions
// run whole sections without per-field error plumbing and check once at the
// end. Collection counts go through Len, which refuses any count larger
// than the bytes left, so a corrupt count can neither allocate nor loop
// beyond the snapshot's own size.
package snap

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
)

// Codec encodes or decodes one snapshot; see the package comment.
type Codec struct {
	buf  []byte // encoding: the output so far; decoding: the unread input
	load bool
	err  error
}

// NewEncoder returns a Codec that appends fields to an internal buffer;
// Encoded returns the result.
func NewEncoder() *Codec { return &Codec{} }

// NewDecoder returns a Codec that decodes fields from b.
func NewDecoder(b []byte) *Codec { return &Codec{buf: b, load: true} }

// Loading reports whether c decodes.
func (c *Codec) Loading() bool { return c.load }

// Encoded returns the bytes an encoder has produced so far.
func (c *Codec) Encoded() []byte { return c.buf }

// Left returns the number of input bytes a decoder has not consumed yet.
func (c *Codec) Left() int { return len(c.buf) }

// Err returns the first recorded error, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records err (if none is recorded yet); a decoder then yields zero
// values for every further field.
func (c *Codec) Fail(err error) {
	if c.err == nil && err != nil {
		c.err = err
	}
}

// take consumes the next n input bytes, failing the codec when fewer are
// left.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf) {
		c.err = fmt.Errorf("snap: short read: need %d byte(s), %d left", n, len(c.buf))
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

// fixed runs one little-endian integer of width bytes (1, 4 or 8): an
// encoder appends v and returns it, a decoder returns the decoded value.
func (c *Codec) fixed(width int, v uint64) uint64 {
	if !c.load {
		switch width {
		case 1:
			c.buf = append(c.buf, uint8(v))
		case 4:
			c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(v))
		default:
			c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
		}
		return v
	}
	b := c.take(width)
	switch {
	case b == nil:
		return 0
	case width == 1:
		return uint64(b[0])
	case width == 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// U8Of runs a field as one byte: uint8-based types, and small enums.
func U8Of[T ~uint8 | ~int](c *Codec, p *T) {
	if v := T(c.fixed(1, uint64(*p))); c.load {
		*p = v
	}
}

// U32Of runs a field as a fixed-width uint32.
func U32Of[T ~uint16 | ~uint32](c *Codec, p *T) {
	if v := T(c.fixed(4, uint64(*p))); c.load {
		*p = v
	}
}

// U64Of runs a field as a fixed-width uint64.
func U64Of[T ~uint16 | ~uint64](c *Codec, p *T) {
	if v := T(c.fixed(8, uint64(*p))); c.load {
		*p = v
	}
}

// I64Of runs a signed field as a fixed-width int64.
func I64Of[T ~int | ~int32 | ~int64](c *Codec, p *T) {
	if v := T(int64(c.fixed(8, uint64(int64(*p))))); c.load {
		*p = v
	}
}

// StrOf runs a field of any string-based type as a length-prefixed string.
func StrOf[T ~string](c *Codec, p *T) {
	if !c.load {
		c.Len(len(*p))
		c.buf = append(c.buf, *p...)
		return
	}
	*p = T(c.blob())
}

// U8 runs one byte.
func (c *Codec) U8(p *uint8) { U8Of(c, p) }

// U32 runs a fixed-width uint32.
func (c *Codec) U32(p *uint32) { U32Of(c, p) }

// U64 runs a fixed-width uint64.
func (c *Codec) U64(p *uint64) { U64Of(c, p) }

// I64 runs a fixed-width int64.
func (c *Codec) I64(p *int64) { I64Of(c, p) }

// Int runs an int as int64.
func (c *Codec) Int(p *int) { I64Of(c, p) }

// Dur runs a time.Duration as its int64 nanosecond count.
func (c *Codec) Dur(p *time.Duration) { I64Of(c, p) }

// Str runs a length-prefixed string.
func (c *Codec) Str(p *string) { StrOf(c, p) }

// Bool runs a boolean as one byte.
func (c *Codec) Bool(p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	if v := c.fixed(1, uint64(b)); c.load {
		*p = v != 0
	}
}

// F64 runs a float64 bit pattern — bit-exact round-trip, including NaN
// payloads and signed zeros.
func (c *Codec) F64(p *float64) {
	if v := c.fixed(8, math.Float64bits(*p)); c.load {
		*p = math.Float64frombits(v)
	}
}

// Bytes runs a length-prefixed byte string. A decoded string is a fresh,
// non-nil copy even when empty.
func (c *Codec) Bytes(p *[]byte) {
	if !c.load {
		c.Len(len(*p))
		c.buf = append(c.buf, *p...)
		return
	}
	if b := c.blob(); c.err == nil {
		*p = append([]byte{}, b...)
	} else {
		*p = nil
	}
}

// maxBytes bounds one length-prefixed field; a corrupt length fails the
// read instead of attempting a multi-gigabyte allocation.
const maxBytes = 1 << 30

// blob decodes a length-prefixed byte string without copying it.
func (c *Codec) blob() []byte {
	n := c.Len(0)
	if n > maxBytes {
		c.Fail(fmt.Errorf("snap: field length %d exceeds limit", n))
	}
	return c.take(n)
}

// Tag runs a section marker. A decoder fails when the marker it reads is
// not name — the checkpoint format's structural checksum.
func (c *Codec) Tag(name string) {
	got := name
	c.Str(&got)
	if c.err == nil && got != name {
		c.err = fmt.Errorf("snap: section %q, want %q (snapshot and reader disagree on layout)", got, name)
	}
}

// Len runs a collection count as a uint32 and returns it: n when encoding,
// the decoded count when decoding. Every element of every collection
// encodes to at least one byte, so a decoder fails (and returns 0) when the
// count exceeds the bytes left.
func (c *Codec) Len(n int) int {
	v := uint32(n)
	c.U32(&v)
	if c.load && int(v) > len(c.buf) {
		c.Fail(fmt.Errorf("snap: count %d exceeds the %d byte(s) left", v, len(c.buf)))
		return 0
	}
	return int(v)
}

// Slice runs a counted slice, elem running each element. A decoder
// truncates *s (keeping its backing array) and appends zero-valued elements
// for elem to fill.
func Slice[S ~[]T, T any](c *Codec, s *S, elem func(*Codec, *T)) {
	n := c.Len(len(*s))
	if !c.load {
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	*s = (*s)[:0]
	var zero T
	for i := 0; i < n && c.err == nil; i++ {
		*s = append(*s, zero)
		elem(c, &(*s)[i])
	}
}

// SortedKeys returns m's keys in ascending order: the deterministic walk
// order for every map a snapshot carries.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// SortedMap runs a counted map as (key, value) records in ascending key
// order. val may be nil for a map used as a set: only keys are encoded, and
// decoded entries hold V's zero value. A decoder clears *m and inserts into
// it, allocating the map only when the count is non-zero.
func SortedMap[K cmp.Ordered, V any](c *Codec, m *map[K]V, key func(*Codec, *K), val func(*Codec, *V)) {
	// One (k, v) scratch pair serves every entry: the callbacks take
	// pointers, so per-entry variables would each escape to the heap.
	var k K
	var v V
	if !c.load {
		c.Len(len(*m))
		for _, k = range SortedKeys(*m) {
			v = (*m)[k]
			key(c, &k)
			if val != nil {
				val(c, &v)
			}
		}
		return
	}
	n := c.Len(0)
	clear(*m)
	if n > 0 && *m == nil {
		*m = make(map[K]V)
	}
	var zk K
	var zv V
	for i := 0; i < n && c.err == nil; i++ {
		k, v = zk, zv
		key(c, &k)
		if val != nil {
			val(c, &v)
		}
		(*m)[k] = v
	}
}

// Make returns the *T that *p holds when encoding; when decoding it stores
// a fresh *T into *p first. p is a pointer field (I = *T) or an interface
// the decoded value implements, so tagged unions decode as
// snap.Make[Variant](c, &field).
func Make[T any, I any](c *Codec, p *I) *T {
	if c.load {
		v := new(T)
		*p = any(v).(I)
		return v
	}
	return any(*p).(*T)
}
