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
