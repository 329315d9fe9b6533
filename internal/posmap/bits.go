package posmap

import (
	"encoding/binary"
	"fmt"
)

// fillChunk is how many values fill draws at a time: a fixed stack buffer
// that stays in L1 between the draw and the packing.
const fillChunk = 512

// bitArray holds n values of w bits each (0 <= w <= 32). Value i sits at
// bits [i·w, i·w+w) of a little-endian byte string and is read or written
// with one unaligned 64-bit access: a value starts at most 7 bits into
// its first byte, so 7 + 32 bits always fit. Eight bytes of padding past
// the last value keep that access in bounds for every index.
type bitArray struct {
	buf  []byte
	n    int
	w    uint
	mask uint64
}

func newBitArray(n int, w uint) bitArray {
	return bitArray{buf: make([]byte, (n*int(w)+7)/8+8), n: n, w: w, mask: 1<<w - 1}
}

// check panics on an index range [i, i+k) outside the array.
func (a bitArray) check(i uint32, k int) {
	if uint64(i)+uint64(k) > uint64(a.n) {
		panic(fmt.Sprintf("posmap: index %d+%d outside %d values", i, k, a.n))
	}
}

// get returns value i. It stays small enough to inline: the range check
// panics with a constant string.
func (a bitArray) get(i uint32) uint32 {
	if int(i) >= a.n {
		panic("posmap: index outside the array")
	}
	bit := uint64(i) * uint64(a.w)
	return uint32(binary.LittleEndian.Uint64(a.buf[bit/8:]) >> (bit % 8) & a.mask)
}

// set stores v, which must fit in w bits, as value i; every other value
// keeps its bits.
func (a bitArray) set(i, v uint32) {
	a.check(i, 1)
	if uint64(v)&^a.mask != 0 {
		panic(fmt.Sprintf("posmap: value %d wider than %d bits", v, a.w))
	}
	bit := uint64(i) * uint64(a.w)
	p, sh := a.buf[bit/8:], bit%8
	x := binary.LittleEndian.Uint64(p)
	binary.LittleEndian.PutUint64(p, x&^(a.mask<<sh)|uint64(v)<<sh)
}

// read fills dst with values start, start+1, … in one pass. Each value is
// its own load, so the loop carries no dependency but the bit offset.
func (a bitArray) read(start uint32, dst []uint32) {
	a.check(start, len(dst))
	buf, w, mask := a.buf, uint64(a.w), a.mask
	bit := uint64(start) * w
	for i := range dst {
		dst[i] = uint32(binary.LittleEndian.Uint64(buf[bit/8:]) >> (bit % 8) & mask)
		bit += w
	}
}

// fill sets every value in index order from the chunks draw writes, each
// of which must fit in w bits. It streams their bits through a 64-bit
// accumulator into the (zeroed) array, four bytes at a time, so no byte is
// read back.
func (a bitArray) fill(draw func(dst []uint32)) {
	var chunk [fillChunk]uint32
	var acc uint64
	var held uint // bits of acc not yet written, always < 32 between values
	buf, w, pos := a.buf, a.w, 0
	for i := 0; i < a.n; i += len(chunk) {
		c := chunk[:min(len(chunk), a.n-i)]
		draw(c)
		for _, v := range c {
			acc |= uint64(v) << (held & 63) // the mask only spares Go's shift-overflow check
			if held += w; held >= 32 {
				binary.LittleEndian.PutUint32(buf[pos:], uint32(acc))
				pos, acc, held = pos+4, acc>>32, held-32
			}
		}
	}
	binary.LittleEndian.PutUint64(buf[pos:], acc)
}
