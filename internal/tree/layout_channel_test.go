package tree

import "testing"

// channelOfAddr reproduces the memory system's rowIdx-mod-channels
// interleaving: the channel a byte address actually lands on.
func channelOfAddr(addr uint64, rowBytes, channels int) int {
	return int((addr / uint64(rowBytes)) % uint64(channels))
}

// TestChannelLayoutMatchesLegacy pins the single-channel interleaved layout
// to the plain subtree layout byte for byte: this is what lets the ORAM
// engine claim Channels=1 is cycle-identical to the legacy engine.
func TestChannelLayoutMatchesLegacy(t *testing.T) {
	for _, l := range []int{4, 6, 9} {
		geo, err := NewGeometry(l, 5)
		if err != nil {
			t.Fatal(err)
		}
		legacy := NewLayout(geo, 64, 8192)
		ch1, err := NewChannelLayout(geo, 64, 8192, 1)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < geo.NumBuckets(); b++ {
			for s := 0; s < geo.Z; s++ {
				if got, want := ch1.SlotAddr(b, s), legacy.SlotAddr(b, s); got != want {
					t.Fatalf("L=%d bucket %d slot %d: channel layout %d, legacy %d", l, b, s, got, want)
				}
			}
		}
	}
}

// TestChannelLayoutInjective checks that no two slots of the tree share a
// byte address under any channel count.
func TestChannelLayoutInjective(t *testing.T) {
	geo, err := NewGeometry(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, channels := range []int{1, 2, 3, 4} {
		ly, err := NewChannelLayout(geo, 64, 8192, channels)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]int)
		for b := 0; b < geo.NumBuckets(); b++ {
			for s := 0; s < geo.Z; s++ {
				a := ly.SlotAddr(b, s)
				if prev, dup := seen[a]; dup {
					t.Fatalf("channels=%d: slot %d/%d aliases bucket %d at address %d", channels, b, s, prev, a)
				}
				seen[a] = b
			}
		}
	}
}

// TestChannelLayoutPinsBands checks that the interleaved layout's addresses
// really land on the channel it claims (ChannelOf agrees with the memory
// system's row interleaving) and that one path's buckets split across the
// channels as evenly as the band arithmetic allows: per-path bucket counts
// per channel differ by at most ceil(bands/channels) - floor(bands/channels)
// bands' worth of buckets.
func TestChannelLayoutPinsBands(t *testing.T) {
	const rowBytes = 8192
	geo, err := NewGeometry(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, channels := range []int{2, 4} {
		ly, err := NewChannelLayout(geo, 64, rowBytes, channels)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < geo.NumBuckets(); b++ {
			want := ly.ChannelOf(b)
			if got := channelOfAddr(ly.BucketAddr(b), rowBytes, channels); got != want {
				t.Fatalf("channels=%d bucket %d: address lands on channel %d, ChannelOf says %d", channels, b, got, want)
			}
		}

		bands := (geo.L + ly.SubtreeHeight) / ly.SubtreeHeight
		path := make([]int, geo.Levels())
		for leaf := uint32(0); leaf < geo.NumLeaves(); leaf += 37 {
			path = geo.Path(leaf, path)
			rows := make(map[uint64]int) // distinct rows per channel on this path
			for _, bucket := range path {
				rows[ly.BucketAddr(bucket)/rowBytes] = ly.ChannelOf(bucket)
			}
			perCh := make([]int, channels)
			for _, ch := range rows {
				perCh[ch]++
			}
			lo, hi := bands, 0
			for _, n := range perCh {
				if n < lo {
					lo = n
				}
				if n > hi {
					hi = n
				}
			}
			if hi-lo > 1 {
				t.Fatalf("channels=%d leaf %d: per-channel row counts %v not balanced (bands=%d)", channels, leaf, perCh, bands)
			}
		}
	}
}

func TestChannelLayoutErrors(t *testing.T) {
	geo, err := NewGeometry(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChannelLayout(geo, 64, 8192, 0); err == nil {
		t.Fatal("channels=0 must be rejected")
	}
	// Z*blockBytes = 5*4096 > 8192: a bucket no longer fits one row.
	if _, err := NewChannelLayout(geo, 4096, 8192, 2); err == nil {
		t.Fatal("oversized bucket must be rejected")
	}
}
