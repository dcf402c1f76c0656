package media

import "realtracer/internal/snap"

// Snap runs the source's playout position through c for a world
// checkpoint. The scene layout and RNG are not serialized: both are pure
// functions of (clip.Seed, encoding), so the restoring owner rebuilds the
// source with Reset before decoding, and only the cursor fields overlay —
// frame-for-frame identical to the checkpointed source, since no draws
// happen after construction. sizeCredit is always zero (reserved) and is
// not persisted.
func (fs *FrameSource) Snap(c *snap.Codec) {
	c.Tag("fsrc")
	c.Int(&fs.sceneIdx)
	c.Int(&fs.videoIdx)
	c.Int(&fs.audioIdx)
	c.Dur(&fs.videoAt)
	c.Dur(&fs.audioAt)
}
