package snap

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// record exercises every field kind and collection helper.
type record struct {
	B    bool
	U8   uint8
	U16  uint16
	U32  uint32
	U64  uint64
	I    int
	I32  int32
	D    time.Duration
	F    float64
	S    string
	Raw  []byte
	List []int32
	Set  map[uint32]*int
	Map  map[string]float64
}

func (r *record) snap(c *Codec) {
	c.Tag("record")
	c.Bool(&r.B)
	c.U8(&r.U8)
	U64Of(c, &r.U16)
	c.U32(&r.U32)
	c.U64(&r.U64)
	c.Int(&r.I)
	I64Of(c, &r.I32)
	c.Dur(&r.D)
	c.F64(&r.F)
	c.Str(&r.S)
	c.Bytes(&r.Raw)
	Slice(c, &r.List, I64Of[int32])
	SortedMap(c, &r.Set, (*Codec).U32, nil)
	SortedMap(c, &r.Map, (*Codec).Str, (*Codec).F64)
}

// TestCodecRoundTripAndTruncation runs one layout both ways and requires
// the decoded value equal to the original, then decodes every strict
// prefix of the encoding and requires an error each time — never a panic
// and never a silently short record.
func TestCodecRoundTripAndTruncation(t *testing.T) {
	in := record{
		B: true, U8: 7, U16: 65535, U32: 1 << 31, U64: math.MaxUint64,
		I: -3, I32: -1 << 31, D: -time.Second, F: math.Copysign(0, -1),
		S: "sess-1", Raw: []byte{}, List: []int32{5, -6},
		Set: map[uint32]*int{9: nil, 2: nil},
		Map: map[string]float64{"b": 1.5, "a": math.Inf(-1)},
	}
	enc := NewEncoder()
	in.snap(enc)
	raw := enc.Encoded()

	var out record
	dec := NewDecoder(raw)
	out.snap(dec)
	if err := dec.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Left() != 0 {
		t.Fatalf("%d byte(s) left after decoding", dec.Left())
	}
	if !reflect.DeepEqual(in, out) || math.Signbit(out.F) != math.Signbit(in.F) {
		t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", out, in)
	}
	again := NewEncoder()
	out.snap(again)
	if string(again.Encoded()) != string(raw) {
		t.Fatal("re-encoding the decoded record changed its bytes")
	}

	for n := 0; n < len(raw); n++ {
		var r record
		d := NewDecoder(raw[:n])
		r.snap(d)
		if d.Err() == nil {
			t.Fatalf("decoding a %d-byte prefix of %d bytes succeeded", n, len(raw))
		}
	}
}

func TestCodecTagMismatch(t *testing.T) {
	enc := NewEncoder()
	enc.Tag("server")
	dec := NewDecoder(enc.Encoded())
	dec.Tag("player")
	if dec.Err() == nil {
		t.Fatal("decoder accepted the wrong section tag")
	}
}
