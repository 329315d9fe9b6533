package oram

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/store"
	"shadowblock/internal/tree"
)

// treeStore is the external-memory image of the ORAM tree: a block.Slot
// for every slot plus, in functional mode, the slot ciphertexts held in a
// pluggable store.Backend. The slots are the simulator's bookkeeping of
// what each (indistinguishable) ciphertext would decrypt to, less the
// label the position map already holds; nothing in them is visible
// off-chip. Timing-only simulations carry no backend at all (back == nil),
// so the hot path is untouched by the storage seam.
//
// The backend is touched at path granularity only, as Algorithms 1 and 2
// touch memory: a path read's collect scan (collectAndForward) reads every
// bucket of the path with one ReadBucket each, root to leaf, and takes out
// of each bucket only the slots the access collects (payload); a path
// write seals every slot into its window, each from a plaintext, and
// writePath flushes the windows with one WriteBucket per bucket. Clearing
// a slot is a metadata update — its stale ciphertext stays off-chip until
// the bucket's next path write reseals it, just as the timing model
// charges a read-only access no write. Construction writes nothing: a bucket no path write has
// reached reads back nil slots, which open as the zero block every block
// starts as. What a Backend observes is therefore exactly the path trace
// the ORAM adversary sees, from the first access on, and every slot it is
// handed is freshly sealed: a shadow kept sealed in the stash is opened
// and sealed again, never written back as it was read.
//
// Backend errors are fatal: the external image is the only copy of the
// sealed data, so a backend that cannot read or write it leaves the ORAM
// instance unusable (see Config.Store).
type treeStore struct {
	geo   tree.Geometry
	slots []block.Slot
	back  store.Backend // nil unless functional
	pl    *payloads     // nil unless functional

	// window holds one fixed buffer per path slot (level-major: slot s of
	// level lv at lv*Z+s), each sealed-slot long, carved from one buffer
	// sized at construction: what a path write seals and flushes.
	window [][]byte
}

// newTreeStore builds the metadata image and, in functional mode (back
// and pl non-nil), the path windows.
func newTreeStore(geo tree.Geometry, back store.Backend, pl *payloads) *treeStore {
	t := &treeStore{geo: geo, slots: make([]block.Slot, geo.NumSlots()), back: back, pl: pl}
	if back != nil {
		sealedBytes := pl.sealed
		buf := make([]byte, geo.PathLen()*sealedBytes)
		t.window = make([][]byte, geo.PathLen())
		for i := range t.window {
			t.window[i] = buf[i*sealedBytes : (i+1)*sealedBytes : (i+1)*sealedBytes]
		}
	}
	return t
}

func (t *treeStore) get(bucket, slot int) block.Slot {
	return t.slots[t.geo.SlotIndex(bucket, slot)]
}

func (t *treeStore) set(bucket, slot int, s block.Slot) {
	t.slots[t.geo.SlotIndex(bucket, slot)] = s
}

func (t *treeStore) clear(bucket, slot int) {
	t.slots[t.geo.SlotIndex(bucket, slot)] = 0
}

// readBucket reads bucket's sealed slots with one ReadBucket (nil in
// timing mode). The result is valid until the next backend call.
func (t *treeStore) readBucket(bucket int) [][]byte {
	if t.back == nil {
		return nil
	}
	cts, err := t.back.ReadBucket(bucket)
	if err != nil {
		panic(fmt.Sprintf("oram: storage backend read of bucket %d: %v", bucket, err))
	}
	return cts
}

// payload takes slot s out of cts, the bucket readBucket just read, into
// a pool buffer the stash takes over: a real opened, a shadow kept sealed.
// Nil in timing mode.
func (t *treeStore) payload(cts [][]byte, bucket, s int, real bool) []byte {
	if t.back == nil {
		return nil
	}
	ct := cts[s]
	if ct != nil && len(ct) != t.pl.sealed {
		panic(fmt.Sprintf("oram: bucket %d slot %d holds %d sealed bytes, want %d", bucket, s, len(ct), t.pl.sealed))
	}
	if real {
		return t.pl.open(ct)
	}
	return t.pl.keep(ct)
}

// writePath flushes the path's windows, one WriteBucket per bucket. The
// path write has sealed every one.
func (t *treeStore) writePath(path []int) {
	if t.back == nil {
		return
	}
	for lv, bucket := range path {
		if err := t.back.WriteBucket(bucket, t.window[lv*t.geo.Z:(lv+1)*t.geo.Z]); err != nil {
			panic(fmt.Sprintf("oram: storage backend write of bucket %d: %v", bucket, err))
		}
	}
}
