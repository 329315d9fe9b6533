package tree

import (
	"fmt"
	"slices"
)

// Layout maps buckets of an ORAM tree to physical DRAM byte addresses using
// the subtree layout of Ren et al. (ISCA'13): the tree is partitioned into
// aligned subtrees of SubtreeHeight levels, and each subtree's buckets are
// stored contiguously so that one subtree fits inside (at most) one DRAM
// row. A path access then touches roughly (L+1)/SubtreeHeight rows instead
// of L+1, which is what makes high DRAM utilisation possible.
//
// A layout built by NewChannelLayout additionally pins each subtree band to
// a DRAM channel, round-robin by band, so the rows of any single path are
// spread evenly across all channels instead of landing wherever the plain
// row-interleaving happens to put them.
type Layout struct {
	geo           Geometry
	BlockBytes    int // bytes per block (ciphertext)
	SubtreeHeight int // levels per subtree
	// Channels > 0 selects the channel-interleaved placement; 0 is the
	// plain contiguous-subtree layout.
	Channels     int
	bucketBytes  int
	subtreeBytes int
	// subtreeBuckets is the number of buckets in a full subtree,
	// 2^SubtreeHeight - 1.
	subtreeBuckets int
	rowBytes       int
	// place[lv] says where level lv's buckets go, so BucketAddr never
	// divides by SubtreeHeight.
	place []levelPlace
}

// levelPlace is where one level's buckets go: their depth within their
// subtree band, the channel the band is pinned to (channel mode), and the
// per-channel subtree slot index of the band's first subtree (the plain
// layout numbers its subtrees as one channel would).
type levelPlace struct {
	local uint
	ch    int
	first int
}

// NewLayout builds a subtree layout for geometry geo with the given block
// size, choosing the largest subtree height whose buckets fit in rowBytes.
func NewLayout(geo Geometry, blockBytes, rowBytes int) Layout {
	bucketBytes := geo.Z * blockBytes
	h := 1
	for (1<<(h+1))-1 <= rowBytes/bucketBytes && h < geo.L+1 {
		h++
	}
	// Subtrees are padded to the row size so each lives in exactly one DRAM
	// row: a path access then opens one row per SubtreeHeight levels. The
	// padding is the storage cost of the layout (Ren et al. size subtrees
	// to rows for the same reason).
	stride := ((1 << h) - 1) * bucketBytes
	if stride < rowBytes {
		stride = rowBytes
	}
	ly := Layout{
		geo:            geo,
		BlockBytes:     blockBytes,
		SubtreeHeight:  h,
		bucketBytes:    bucketBytes,
		subtreeBuckets: (1 << h) - 1,
		subtreeBytes:   stride,
	}
	ly.placeLevels(1)
	return ly
}

// placeLevels fills place for subtree bands dealt round-robin over
// channels: band b (levels [b*h, (b+1)*h)) holds 2^(b*h) subtrees, and a
// band's first subtree sits after every earlier band on the same channel.
func (ly *Layout) placeLevels(channels int) {
	h := ly.SubtreeHeight
	ly.place = make([]levelPlace, ly.geo.L+1)
	perChannel := make([]int, channels)
	for lv := range ly.place {
		band := lv / h
		ch := band % channels
		ly.place[lv] = levelPlace{local: uint(lv % h), ch: ch, first: perChannel[ch]}
		if lv%h == h-1 || lv == ly.geo.L {
			perChannel[ch] += 1 << uint(band*h)
		}
	}
}

// NewChannelLayout builds a channel-interleaved subtree layout: subtree
// band b (levels [b*h, (b+1)*h)) lives on channel b mod channels, and the
// row indices chosen for a band's subtrees are congruent to that channel
// under the memory system's rowIdx-mod-channels interleaving. A path
// touches one subtree per band, so its ~(L+1)/h rows split across the
// channels as evenly as arithmetic allows, instead of queueing on one bus.
//
// With channels = 1 the produced byte addresses are identical to
// NewLayout's, which is what pins the single-channel engine to the legacy
// timing. A bucket must fit in one DRAM row (the subtree height the plain
// layout would pick already guarantees a whole subtree does).
func NewChannelLayout(geo Geometry, blockBytes, rowBytes, channels int) (Layout, error) {
	bucketBytes := geo.Z * blockBytes
	if channels < 1 {
		return Layout{}, fmt.Errorf("tree: channel layout needs channels >= 1, got %d", channels)
	}
	if bucketBytes > rowBytes {
		return Layout{}, fmt.Errorf("tree: bucket (%d B) exceeds a DRAM row (%d B); the channel-interleaved layout stores whole subtrees per row", bucketBytes, rowBytes)
	}
	ly := NewLayout(geo, blockBytes, rowBytes)
	ly.Channels = channels
	ly.rowBytes = rowBytes
	ly.placeLevels(channels)
	return ly, nil
}

// BucketAddr returns the physical byte address of the first block of the
// given bucket.
//
// Subtrees are numbered breadth-first: the subtree containing the root is 0;
// at each subtree boundary a bucket's subtree is identified by walking the
// tree coordinates. Buckets within a subtree are stored in local heap order.
func (ly *Layout) BucketAddr(bucket int) uint64 {
	level := ly.geo.BucketLevel(bucket)
	pos := bucket - ((1 << level) - 1) // position within level

	p := ly.place[level]

	// The root bucket of this bucket's subtree is at the top level of its
	// band, position pos >> local.
	subRootPos := pos >> p.local

	// Local heap index of the bucket within its subtree.
	localIdx := (1 << p.local) - 1 + (pos - subRootPos<<p.local)

	slot := p.first + subRootPos
	if ly.Channels > 0 {
		// One subtree per row; the row index is congruent to the band's
		// channel so the memory system's rowIdx-mod-channels interleaving
		// lands the subtree exactly there.
		row := slot*ly.Channels + p.ch
		return uint64(row)*uint64(ly.rowBytes) + uint64(localIdx)*uint64(ly.bucketBytes)
	}
	// All subtrees in shallower bands come first, then this band's in
	// position order.
	return uint64(slot)*uint64(ly.subtreeBytes) + uint64(localIdx)*uint64(ly.bucketBytes)
}

// SlotAddr returns the physical byte address of slot s of bucket b.
func (ly *Layout) SlotAddr(bucket, slot int) uint64 {
	return ly.BucketAddr(bucket) + uint64(slot)*uint64(ly.BlockBytes)
}

// AppendSlotAddrs appends the physical byte addresses of every slot of
// bucket, slot 0 first, to dst: what SlotAddr returns for each, from one
// BucketAddr.
func (ly *Layout) AppendSlotAddrs(dst []uint64, bucket int) []uint64 {
	n := len(dst)
	dst = slices.Grow(dst, ly.geo.Z)[:n+ly.geo.Z]
	a := ly.BucketAddr(bucket)
	for s := range dst[n:] {
		dst[n+s] = a + uint64(s)*uint64(ly.BlockBytes)
	}
	return dst
}
