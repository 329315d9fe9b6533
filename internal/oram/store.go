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
// touch memory: readPath copies every bucket of a path into the stage with
// one ReadBucket each, root to leaf; a path write seals every slot into
// the stage in place and writePath flushes it with one WriteBucket each.
// Between the two the stage is the controller's view of the path, so
// clearing a slot is a metadata update — its stale ciphertext stays
// off-chip until the bucket's next path write reseals it, just as the
// timing model charges a read-only access no write. What a Backend
// observes is therefore exactly the path trace the ORAM adversary sees.
//
// Backend errors are fatal: the external image is the only copy of the
// sealed data, so a backend that cannot read or write it leaves the ORAM
// instance unusable (see Config.Store).
type treeStore struct {
	geo   tree.Geometry
	slots []block.Slot
	back  store.Backend // nil unless functional

	// stage holds one fixed window per path slot (level-major: slot s of
	// level lv at lv*Z+s), each sealedBytes long, over a single buffer
	// sized at construction. Every slot of the image always holds a
	// ciphertext: construction seals the whole tree.
	stage [][]byte
}

// newTreeStore builds the metadata image and, when back is non-nil, the
// path stage for slots of sealedBytes each.
func newTreeStore(geo tree.Geometry, back store.Backend, sealedBytes int) *treeStore {
	t := &treeStore{geo: geo, slots: make([]block.Slot, geo.NumSlots()), back: back}
	if back != nil {
		buf := make([]byte, geo.PathLen()*sealedBytes)
		t.stage = make([][]byte, geo.PathLen())
		for i := range t.stage {
			t.stage[i] = buf[i*sealedBytes : (i+1)*sealedBytes : (i+1)*sealedBytes]
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

// readPath stages the ciphertexts of path, one ReadBucket per bucket.
func (t *treeStore) readPath(path []int) {
	if t.back == nil {
		return
	}
	for lv, bucket := range path {
		for s, ct := range t.readBucket(bucket) {
			w := t.stage[lv*t.geo.Z+s]
			if len(ct) != len(w) {
				panic(fmt.Sprintf("oram: bucket %d slot %d holds %d sealed bytes, want %d", bucket, s, len(ct), len(w)))
			}
			copy(w, ct)
		}
	}
}

// writePath flushes the staged path, one WriteBucket per bucket.
func (t *treeStore) writePath(path []int) {
	if t.back == nil {
		return
	}
	for lv, bucket := range path {
		t.writeBucket(bucket, t.stage[lv*t.geo.Z:(lv+1)*t.geo.Z])
	}
}

// readBucket returns views of bucket's ciphertexts, valid until the next
// backend call.
func (t *treeStore) readBucket(bucket int) [][]byte {
	slots, err := t.back.ReadBucket(bucket)
	if err != nil {
		panic(fmt.Sprintf("oram: storage backend read of bucket %d: %v", bucket, err))
	}
	return slots
}

func (t *treeStore) writeBucket(bucket int, slots [][]byte) {
	if err := t.back.WriteBucket(bucket, slots); err != nil {
		panic(fmt.Sprintf("oram: storage backend write of bucket %d: %v", bucket, err))
	}
}
