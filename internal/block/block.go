// Package block defines ORAM block metadata and the 32-bit tree-slot
// encoding.
//
// Every entry in the stash carries a Meta: the block kind (dummy / real /
// shadow), the program address, the leaf label, and — for shadow blocks —
// SrcLevel, the tree level at which the duplicated real block was placed.
// SrcLevel is what lets the controller enforce the paper's Rule-2 ("a
// shadow block always appears at lower levels of the ORAM tree than the
// data block being duplicated") even when a shadow is re-evicted from the
// stash long after it was created.
//
// A tree slot stores a Slot instead: the address and a 5-bit tag, no
// label. The Path ORAM invariant keeps every block on the path of its
// position-map label, so the label a slot would carry is the position
// map's; a Slot turns back into a Meta only with that label supplied.
package block

import "fmt"

// Kind classifies a block slot.
type Kind uint8

const (
	// Dummy slots hold meaningless (freshly re-encrypted) data.
	Dummy Kind = iota
	// Real blocks hold current program data.
	Real
	// Shadow blocks hold a duplicate of a real block's data (the paper's
	// contribution). They are indistinguishable from dummies off-chip.
	Shadow
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Dummy:
		return "dummy"
	case Real:
		return "real"
	case Shadow:
		return "shadow"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Meta is the metadata of one block.
type Meta struct {
	Kind     Kind
	Addr     uint32 // program (unified-space) block address
	Label    uint32 // leaf label; the block must be in the stash or on this path
	SrcLevel uint8  // shadows only: level of the real copy when duplicated
}

// DummyMeta is the canonical metadata of an empty slot.
var DummyMeta = Meta{Kind: Dummy}

// String implements fmt.Stringer.
func (m Meta) String() string {
	if m.Kind == Dummy {
		return "{dummy}"
	}
	if m.Kind == Shadow {
		return fmt.Sprintf("{shadow a=%d l=%d src=%d}", m.Addr, m.Label, m.SrcLevel)
	}
	return fmt.Sprintf("{real a=%d l=%d}", m.Addr, m.Label)
}

// Slot field widths: a 27-bit unified address above a 5-bit tag. The
// address space covers an L=24 tree's 71.6 M unified blocks.
const (
	tagBits  = 5
	addrBits = 32 - tagBits
	tagMask  = 1<<tagBits - 1

	// MaxAddr is the largest representable unified address.
	MaxAddr = 1<<addrBits - 1
	// MaxSrcLevel is the largest source level a shadow's tag holds.
	MaxSrcLevel = tagMask - 1
)

// Slot is one tree slot's metadata packed into 32 bits (LSB first):
// tag:5 | addr:27. The tag is the kind for a dummy (0) or a real block
// (1), and 1+SrcLevel for a shadow. The zero Slot is an empty (dummy) slot.
type Slot uint32

// NewSlot encodes m for the tree, dropping its label (the position map
// holds it). A shadow's SrcLevel must lie in [1, MaxSrcLevel]: Rule-2 puts
// every shadow strictly above its real copy, so no shadow records level 0.
func NewSlot(m Meta) Slot {
	tag := uint32(m.Kind)
	if m.Kind == Shadow {
		if m.SrcLevel-1 >= MaxSrcLevel {
			panic("block: shadow SrcLevel outside [1, MaxSrcLevel]")
		}
		tag = 1 + uint32(m.SrcLevel)
	}
	return Slot(m.Addr<<tagBits | tag)
}

// Kind returns the slot's kind.
func (s Slot) Kind() Kind { return min(Kind(s&tagMask), Shadow) }

// Addr returns the slot's unified address.
func (s Slot) Addr() uint32 { return uint32(s) >> tagBits }

// Meta decodes the slot under label, the position map's label for its
// address.
func (s Slot) Meta(label uint32) Meta {
	m := Meta{Kind: s.Kind(), Addr: s.Addr(), Label: label}
	if m.Kind == Shadow {
		m.SrcLevel = uint8(s&tagMask - 1)
	}
	return m
}
