// Package kv is the oblivious key-value store as a library: Service serves
// Get, Put and Delete over a functional ORAM on a storage backend, and
// cmd/shadowd puts HTTP and a batcher in front of it. A Directory
// translates keys to block addresses (kept on-chip — the key set is
// metadata the ORAM does not hide), and the framing functions pack a value
// into a block with a length prefix so any byte string round-trips exactly,
// including values ending in 0x00.
//
// Nothing here is synchronised: the ORAM controller is single-threaded by
// design, so callers serialise every call on a Service.
package kv

import (
	"encoding/binary"
	"fmt"
)

// FrameOverhead is the bytes of each block spent on the value-length
// prefix.
const FrameOverhead = 2

// MaxValue returns the largest value a block of blockBytes can frame: the
// block less the prefix, and never more than the 16-bit prefix can count
// (a longer value would wrap the prefix and decode short).
func MaxValue(blockBytes int) int { return min(blockBytes-FrameOverhead, 0xFFFF) }

// EncodeValue frames value into a fresh blockBytes-sized block:
// a 2-byte little-endian length followed by the value, zero padded.
// Values longer than MaxValue(blockBytes) are rejected, never truncated.
func EncodeValue(value []byte, blockBytes int) ([]byte, error) {
	if blockBytes < FrameOverhead {
		return nil, fmt.Errorf("kv: block of %d bytes cannot hold the %d-byte frame", blockBytes, FrameOverhead)
	}
	if len(value) > MaxValue(blockBytes) {
		return nil, fmt.Errorf("kv: value of %d bytes exceeds the %d-byte block payload", len(value), MaxValue(blockBytes))
	}
	out := make([]byte, blockBytes)
	binary.LittleEndian.PutUint16(out[:FrameOverhead], uint16(len(value)))
	copy(out[FrameOverhead:], value)
	return out, nil
}

// DecodeValue unframes a block produced by EncodeValue. A corrupt length
// (longer than the block could hold) is an error, not a short read.
func DecodeValue(block []byte) ([]byte, error) {
	if len(block) < FrameOverhead {
		return nil, fmt.Errorf("kv: block of %d bytes shorter than the frame", len(block))
	}
	n := int(binary.LittleEndian.Uint16(block[:FrameOverhead]))
	if n > len(block)-FrameOverhead {
		return nil, fmt.Errorf("kv: frame claims %d value bytes in a %d-byte block", n, len(block))
	}
	out := make([]byte, n)
	copy(out, block[FrameOverhead:FrameOverhead+n])
	return out, nil
}

// Directory is the on-chip key→block-address map: bump allocation from a
// bounded address space, with freed addresses recycled before fresh ones.
type Directory struct {
	addrs map[string]uint32
	free  []uint32
	next  uint32
	limit uint32
}

// NewDirectory builds a directory over an address space of capacity
// blocks.
func NewDirectory(capacity int) *Directory {
	if capacity < 0 {
		capacity = 0
	}
	return &Directory{addrs: make(map[string]uint32), limit: uint32(capacity)}
}

// Lookup returns the block address holding key, if assigned.
func (d *Directory) Lookup(key string) (uint32, bool) {
	a, ok := d.addrs[key]
	return a, ok
}

// Assign returns key's block address, allocating one on first use. It
// fails only when the address space is exhausted.
func (d *Directory) Assign(key string) (uint32, error) {
	if a, ok := d.addrs[key]; ok {
		return a, nil
	}
	var a uint32
	if n := len(d.free); n > 0 {
		a = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		if d.next >= d.limit {
			return 0, fmt.Errorf("kv: address space exhausted (%d blocks)", d.limit)
		}
		a = d.next
		d.next++
	}
	d.addrs[key] = a
	return a, nil
}

// Remove unassigns key and recycles its block address. It reports whether
// the key was present; the caller is responsible for scrubbing the block's
// contents before the address is reused.
func (d *Directory) Remove(key string) (uint32, bool) {
	a, ok := d.addrs[key]
	if !ok {
		return 0, false
	}
	delete(d.addrs, key)
	d.free = append(d.free, a)
	return a, true
}

// Len returns the number of assigned keys.
func (d *Directory) Len() int { return len(d.addrs) }
