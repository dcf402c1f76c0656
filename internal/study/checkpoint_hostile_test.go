package study

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"
)

// afterTag returns the offset just past the first section tag name at or
// after from (a tag encodes as a length-prefixed string), failing the test
// when the snapshot holds none.
func afterTag(t *testing.T, snap []byte, name string, from int) int {
	t.Helper()
	tag := binary.LittleEndian.AppendUint32(nil, uint32(len(name)))
	tag = append(tag, name...)
	i := bytes.Index(snap[from:], tag)
	if i < 0 {
		t.Fatalf("snapshot holds no %q tag after offset %d", name, from)
	}
	return from + i + len(tag)
}

// TestResumeRejectsHostileSnapshots hand-corrupts fields whose decoded
// values used to reach a panic or an unbounded allocation, and requires
// Resume to return an error — promptly, and without panicking.
func TestResumeRejectsHostileSnapshots(t *testing.T) {
	openOpt := checkpointArms[1].opt // open loop: arrivals still pending
	straight, err := Run(openOpt)
	if err != nil {
		t.Fatal(err)
	}
	open := checkpointAt(t, openOpt, straight.SimDuration/4)

	// The open-loop section opens with six int counters, the arrival RNG
	// (seed, count) and the policy cursor, then the arrival timer record
	// (armed, At, seq).
	arrival := afterTag(t, open, "openloop", 0) + 6*8 + 16 + 8
	if open[arrival] != 1 {
		t.Fatal("arrival timer not armed at the cut; the test needs a pending arrival")
	}
	// Each built template bundle runs its stack record (tag, port cursor),
	// then done, departed and ordinal, then its clip-index count.
	clipCount := afterTag(t, open, "stack", afterTag(t, open, "openloop", 0)) + 8 + 1 + 1 + 8
	// A streaming session runs encIdx, playing, stopped, startAt,
	// mediaPos and the has-source flag just before its frame-source tag.
	fsrc := afterTag(t, open, "fsrc", 0) - 8
	encIdx := fsrc - 1 - 8 - 8 - 1 - 1 - 8

	// Options block: magic, then the length-prefixed options bytes.
	magicEnd := 4 + len(snapMagic)
	optLen := int(binary.LittleEndian.Uint32(open[magicEnd:]))
	optEnd := magicEnd + 4 + optLen

	put64 := func(off int, v uint64) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[off:], v); return b }
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    string
	}{
		{"timer before now", put64(arrival+1, 0), "before now"},
		{"timer seq not issued", put64(arrival+1+8, 1<<40), "not below clock seq"},
		{"clip count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[clipCount:], 0xFFFFFFFF)
			return b
		}, "exceeds"},
		{"encoding index", put64(encIdx, 1<<20), "encoding index"},
		{"options trailing bytes", func(b []byte) []byte {
			// Re-frame the options block with three extra bytes and a
			// matching hash, so only the trailing-bytes check can object.
			opts := append(append([]byte(nil), b[magicEnd+4:optEnd]...), 0xAB, 0xCD, 0xEF)
			out := append([]byte(nil), b[:magicEnd]...)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(opts)))
			out = append(out, opts...)
			out = binary.LittleEndian.AppendUint64(out, hashBytes(opts))
			return append(out, b[optEnd+8:]...)
		}, "carry 3 trailing byte(s) starting 0xab"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.corrupt(append([]byte(nil), open...))
			start := time.Now()
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
						t.Errorf("resume panicked: %v", p)
					}
				}()
				_, err = Resume(bytes.NewReader(bad), nil)
				return err
			}()
			if err == nil {
				t.Fatal("resume accepted a corrupt snapshot")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("resume took %v to reject the snapshot", d)
			}
		})
	}
}
