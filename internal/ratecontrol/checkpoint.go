package ratecontrol

import (
	"fmt"

	"realtracer/internal/snap"
)

// Controller type tags in the snapshot.
const (
	ctlAIMD         = 1
	ctlTFRC         = 2
	ctlUnresponsive = 3
)

// Snap runs a controller's full state through c for a world checkpoint,
// tagged by concrete type so decoding rebuilds the same controller
// mid-trajectory into *ctl.
func Snap(c *snap.Codec, ctl *Controller) {
	var tag uint8
	switch (*ctl).(type) {
	case *AIMD:
		tag = ctlAIMD
	case *TFRC:
		tag = ctlTFRC
	case *Unresponsive:
		tag = ctlUnresponsive
	default:
		if !c.Loading() {
			c.Fail(fmt.Errorf("ratecontrol: cannot snapshot controller type %T", *ctl))
			return
		}
	}
	c.U8(&tag)
	switch tag {
	case ctlAIMD:
		t := snap.Make[AIMD](c, ctl)
		c.F64(&t.lim.MinKbps)
		c.F64(&t.lim.MaxKbps)
		c.F64(&t.rate)
		c.F64(&t.IncKbps)
		c.F64(&t.DecMult)
	case ctlTFRC:
		t := snap.Make[TFRC](c, ctl)
		c.F64(&t.lim.MinKbps)
		c.F64(&t.lim.MaxKbps)
		c.F64(&t.rate)
		c.Int(&t.PacketSize)
		c.F64(&t.lossEMA)
		c.F64(&t.rttEMA)
		c.Bool(&t.seen)
		c.Bool(&t.everLost)
		c.Int(&t.cleanStreak)
	case ctlUnresponsive:
		c.F64(&snap.Make[Unresponsive](c, ctl).Kbps)
	default:
		c.Fail(fmt.Errorf("ratecontrol: unknown controller tag %d", tag))
	}
}
