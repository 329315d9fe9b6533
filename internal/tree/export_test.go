package tree

// ChannelOf returns the DRAM channel the bucket's subtree is pinned to.
// Only meaningful for channel-interleaved layouts; the plain layout leaves
// channel selection to the memory system's row interleaving and returns 0.
func (ly *Layout) ChannelOf(bucket int) int {
	if ly.Channels <= 0 {
		return 0
	}
	return (ly.geo.BucketLevel(bucket) / ly.SubtreeHeight) % ly.Channels
}
