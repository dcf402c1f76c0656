package rtsp

import "realtracer/internal/snap"

// Snap runs the message field-exactly through c for a world checkpoint. The
// wire codec (Marshal/Parse) is deliberately not reused here: it normalizes
// empty reason phrases and trims malformed headers, and a checkpoint must
// reproduce the in-memory message a receiver would have seen, not its
// canonicalized wire form.
func (m *Message) Snap(c *snap.Codec) {
	c.Tag("rtsp")
	c.Bool(&m.Request)
	c.Str(&m.Method)
	c.Str(&m.URL)
	c.Int(&m.Status)
	c.Str(&m.Reason)
	c.Int(&m.CSeq)
	snap.SortedMap(c, &m.Header, (*snap.Codec).Str, (*snap.Codec).Str)
	c.Bytes(&m.Body)
}
