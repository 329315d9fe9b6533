package kv

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestFramingRoundTrip(t *testing.T) {
	const blockBytes = 64
	f := func(v []byte) bool {
		if len(v) > MaxValue(blockBytes) {
			v = v[:MaxValue(blockBytes)]
		}
		b, err := EncodeValue(v, blockBytes)
		if err != nil {
			return false
		}
		if len(b) != blockBytes {
			return false
		}
		got, err := DecodeValue(b)
		if err != nil {
			return false
		}
		return bytes.Equal(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTrailingZeroValueSurvives is the regression test for the
// trailing-zero trim bug: the KV layer used to strip all trailing NULs off the
// block, so a value ending in 0x00 came back shortened.
func TestTrailingZeroValueSurvives(t *testing.T) {
	for _, v := range [][]byte{
		{0},
		{0, 0, 0},
		{1, 2, 0},
		append(bytes.Repeat([]byte{9}, 10), 0, 0),
		{}, // empty value stays empty, distinct from absent
	} {
		b, err := EncodeValue(v, 32)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		got, err := DecodeValue(b)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestOversizeValueRejected(t *testing.T) {
	if _, err := EncodeValue(bytes.Repeat([]byte{1}, 63), 64); err == nil {
		t.Fatal("value larger than the payload accepted")
	}
	if _, err := EncodeValue(bytes.Repeat([]byte{1}, 62), 64); err != nil {
		t.Fatalf("value exactly filling the payload rejected: %v", err)
	}
}

// TestValueBeyondPrefixRangeRejected: in a block wider than the 16-bit
// length prefix can count, a value past 0xFFFF bytes must be rejected, not
// framed with a wrapped length that decodes short (70 000 bytes read back
// as 4 464).
func TestValueBeyondPrefixRangeRejected(t *testing.T) {
	const blockBytes = 1 << 17
	if got := MaxValue(blockBytes); got != 0xFFFF {
		t.Fatalf("MaxValue(%d) = %d, want 65535", blockBytes, got)
	}
	v := bytes.Repeat([]byte{7}, 70000)
	if blk, err := EncodeValue(v, blockBytes); err == nil {
		got, _ := DecodeValue(blk)
		t.Fatalf("%d-byte value accepted; it decodes as %d bytes", len(v), len(got))
	}
	v = v[:0xFFFF]
	blk, err := EncodeValue(v, blockBytes)
	if err != nil {
		t.Fatalf("value of exactly 0xFFFF bytes rejected: %v", err)
	}
	if got, err := DecodeValue(blk); err != nil || !bytes.Equal(got, v) {
		t.Fatalf("0xFFFF-byte value decodes as %d bytes (%v)", len(got), err)
	}
}

func TestCorruptFrameRejected(t *testing.T) {
	if _, err := DecodeValue([]byte{5}); err == nil {
		t.Fatal("short block accepted")
	}
	// Length prefix claims more bytes than the block holds.
	b := make([]byte, 16)
	b[0] = 200
	if _, err := DecodeValue(b); err == nil {
		t.Fatal("over-long frame accepted")
	}
}

func TestDirectoryAssignLookupRemove(t *testing.T) {
	d := NewDirectory(3)
	if _, ok := d.Lookup("a"); ok {
		t.Fatal("empty directory resolved a key")
	}
	a1, err := d.Assign("a")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := d.Assign("a"); again != a1 {
		t.Fatal("re-assign moved the key")
	}
	b1, _ := d.Assign("b")
	c1, _ := d.Assign("c")
	if a1 == b1 || b1 == c1 || a1 == c1 {
		t.Fatal("addresses collide")
	}
	if _, err := d.Assign("d"); err == nil {
		t.Fatal("exhausted address space still allocated")
	}
	if got, ok := d.Remove("b"); !ok || got != b1 {
		t.Fatalf("Remove(b) = %d,%v", got, ok)
	}
	if _, ok := d.Lookup("b"); ok {
		t.Fatal("removed key still resolves")
	}
	// The freed address is recycled before any fresh one.
	d2, err := d.Assign("d")
	if err != nil {
		t.Fatal(err)
	}
	if d2 != b1 {
		t.Fatalf("freed address %d not recycled, got %d", b1, d2)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
}
