package rdt

import (
	"fmt"

	"realtracer/internal/snap"
)

// Snap runs the packet field-exactly through c for a world checkpoint. The
// wire codec (Encode/Decode) is deliberately not reused: it materializes
// the simulation's Payload==nil/PadLen representation into real zero bytes,
// and a restored world must keep the allocation-free representation the
// straight-through run carries. Decoding fills a zero Packet.
func (p *Packet) Snap(c *snap.Codec) {
	c.Tag("rdt")
	snap.U8Of(c, &p.Kind)
	switch p.Kind {
	case TypeData:
		snap.Make[Data](c, &p.Data).Snap(c)
	case TypeReport:
		snap.Make[Report](c, &p.Report).Snap(c)
	case TypeRepair:
		r := snap.Make[Repair](c, &p.Repair)
		snap.U8Of(c, &r.Stream)
		c.U32(&r.BaseSeq)
		c.U8(&r.Group)
		snap.Slice(c, &r.Meta, SnapRepairMeta)
		snapPadded(c, &r.Parity, &r.PadLen)
	case TypeBufferState:
		b := snap.Make[BufferState](c, &p.BufferState)
		c.U32(&b.Ms)
		c.U32(&b.Target)
	case TypeEndOfStream:
		c.U32(&snap.Make[EndOfStream](c, &p.EOS).FinalSeq)
	case TypeNack:
		nk := snap.Make[Nack](c, &p.Nack)
		snap.U8Of(c, &nk.Stream)
		snap.Slice(c, &nk.Seqs, (*snap.Codec).U32)
	default:
		if c.Loading() {
			c.Fail(fmt.Errorf("rdt: restore of unknown packet kind %d", p.Kind))
		}
	}
}

// snapPadded runs a body that is either real bytes or, in simulation, a
// nil slice standing for padLen zero bytes — preserving the distinction.
func snapPadded(c *snap.Codec, b *[]byte, padLen *int) {
	hasBytes := *b != nil
	c.Bool(&hasBytes)
	if hasBytes {
		c.Bytes(b)
	} else {
		c.Int(padLen)
	}
}

// Snap runs one media Data field-exactly, preserving the Payload-nil/PadLen
// distinction. Decoding overlays d (typically an arena cell owned by the
// restoring session).
func (d *Data) Snap(c *snap.Codec) {
	snap.U8Of(c, &d.Stream)
	c.U32(&d.Seq)
	c.U32(&d.MediaTime)
	c.U8(&d.Flags)
	snap.U64Of(c, &d.EncRate)
	c.U32(&d.FrameIndex)
	c.U8(&d.FragIndex)
	c.U8(&d.FragCount)
	snapPadded(c, &d.Payload, &d.PadLen)
}

// Snap runs one receiver Report.
func (r *Report) Snap(c *snap.Codec) {
	c.U32(&r.Expected)
	c.U32(&r.Lost)
	snap.U64Of(c, &r.RateKbps)
	snap.U64Of(c, &r.JitterMs)
	snap.U64Of(c, &r.BufferMs)
	snap.U64Of(c, &r.RTTMs)
}

// SnapRepairMeta runs one FEC group-member record.
func SnapRepairMeta(c *snap.Codec, m *RepairMeta) {
	c.U32(&m.Seq)
	c.U32(&m.FrameIndex)
	c.U32(&m.MediaTime)
	c.U8(&m.FragIndex)
	c.U8(&m.FragCount)
	c.U8(&m.Flags)
	snap.U64Of(c, &m.EncRate)
	snap.U64Of(c, &m.Size)
}
