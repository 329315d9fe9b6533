package block

import (
	"testing"
	"testing/quick"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(kind uint8, addr, label uint32, src uint8) bool {
		m := Meta{Kind: Kind(kind % 3), Addr: addr & MaxAddr, Label: label}
		if m.Kind == Shadow {
			m.SrcLevel = 1 + src%MaxSrcLevel
		}
		return NewSlot(m).Meta(label) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDummyMetaPacksToKindBitsOnly(t *testing.T) {
	if NewSlot(DummyMeta) != 0 {
		t.Fatalf("NewSlot(DummyMeta) = %#x, want 0", uint32(NewSlot(DummyMeta)))
	}
	if Slot(0).Kind() != Dummy {
		t.Fatal("the zero Slot is not a dummy")
	}
}

// TestPackBoundaryValues covers every tag at both ends of the address
// range: each decodes to the kind and level its value names, and encoding
// the decoded Meta gives the same Slot back.
func TestPackBoundaryValues(t *testing.T) {
	const label = 12345
	for tag := uint32(0); tag <= tagMask; tag++ {
		for _, addr := range []uint32{0, MaxAddr} {
			s := Slot(addr<<tagBits | tag)
			m := s.Meta(label)
			want := Meta{Kind: Kind(tag), Addr: addr, Label: label}
			if tag > uint32(Real) {
				want.Kind, want.SrcLevel = Shadow, uint8(tag-1)
			}
			if m != want {
				t.Fatalf("tag %d addr %d: decoded %+v, want %+v", tag, addr, m, want)
			}
			if back := NewSlot(m); back != s {
				t.Fatalf("tag %d addr %d: re-encoded %#x, want %#x", tag, addr, uint32(back), uint32(s))
			}
		}
	}
	for _, src := range []uint8{0, MaxSrcLevel + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a shadow with SrcLevel %d encoded without a panic", src)
				}
			}()
			NewSlot(Meta{Kind: Shadow, Addr: 1, SrcLevel: src})
		}()
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Dummy: "dummy", Real: "real", Shadow: "shadow", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), k.String(), want)
		}
	}
}

func TestMetaString(t *testing.T) {
	if DummyMeta.String() != "{dummy}" {
		t.Errorf("dummy string = %q", DummyMeta.String())
	}
	m := Meta{Kind: Real, Addr: 7, Label: 3}
	if m.String() != "{real a=7 l=3}" {
		t.Errorf("real string = %q", m.String())
	}
	s := Meta{Kind: Shadow, Addr: 7, Label: 3, SrcLevel: 9}
	if s.String() != "{shadow a=7 l=3 src=9}" {
		t.Errorf("shadow string = %q", s.String())
	}
}
