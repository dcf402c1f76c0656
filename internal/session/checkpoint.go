package session

import (
	"fmt"

	"realtracer/internal/rdt"
	"realtracer/internal/rtsp"
	"realtracer/internal/snap"
	"realtracer/internal/transport"
)

// Snapshot tags for the application payloads a checkpoint can encounter on
// the wire or queued inside transport conns.
const (
	snapRTSP  = 1
	snapRDT   = 2
	snapHello = 3
)

// SnapCodec returns the application-payload codec for world checkpoints:
// the three session-level payload types, each serialized field-exactly by
// its own package.
func SnapCodec() transport.AppCodec { return snapPayload }

func snapPayload(c *snap.Codec, payload *any) {
	var tag uint8
	switch (*payload).(type) {
	case *rtsp.Message:
		tag = snapRTSP
	case *rdt.Packet:
		tag = snapRDT
	case *DataHello:
		tag = snapHello
	default:
		if !c.Loading() {
			c.Fail(fmt.Errorf("session: cannot snapshot payload type %T", *payload))
			return
		}
	}
	c.U8(&tag)
	switch tag {
	case snapRTSP:
		snap.Make[rtsp.Message](c, payload).Snap(c)
	case snapRDT:
		snap.Make[rdt.Packet](c, payload).Snap(c)
	case snapHello:
		c.Str(&snap.Make[DataHello](c, payload).SessionID)
	default:
		c.Fail(fmt.Errorf("session: unknown snapshot payload tag %d", tag))
	}
}

// Snap runs the clip description field-exactly through c.
func (d *ClipDesc) Snap(c *snap.Codec) {
	c.Tag("desc")
	c.Str(&d.Title)
	c.Dur(&d.Duration)
	c.Bool(&d.Scalable)
	c.Bool(&d.Live)
	snap.Slice(c, &d.Encodings, func(c *snap.Codec, e *EncodingDesc) {
		c.F64(&e.TotalKbps)
		c.F64(&e.AudioKbps)
		c.F64(&e.FrameRate)
		c.Int(&e.Width)
		c.Int(&e.Height)
	})
}
