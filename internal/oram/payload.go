package oram

import (
	"fmt"

	"shadowblock/internal/crypt"
)

// payloads is the functional engine's plaintext side: the crypt engine and
// the pool every payload buffer comes from (DESIGN.md, "The storage seam",
// gives which slots an access opens and when a buffer goes back). A buffer
// is NonceSize+BlockBytes long: a plaintext is its first BlockBytes, a
// shadow an eviction keeps sealed all of it, so isSealed tells them apart.
// Each buffer has one owner at a time, and nothing outside the engine
// ever holds one.
type payloads struct {
	eng           *crypt.Engine
	plain, sealed int
	free          [][]byte
	zero          []byte // what a nil payload, the zero block, seals as
	opens         uint64 // slots opened; the open-accounting test reads it
}

// scribbleFreed makes put overwrite every buffer it takes back, so a test
// that keeps using a released buffer reads garbage.
var scribbleFreed bool

// get returns a pool buffer sliced to a plaintext, its bytes undefined.
func (p *payloads) get() []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b[:p.plain]
	}
	return make([]byte, p.plain, p.sealed)
}

// put returns b, a buffer get handed out, to the pool. A nil payload owns
// no buffer, nor does a nil pool (timing mode); a buffer of another size,
// planted in the stash from outside, is left to the garbage collector.
func (p *payloads) put(b []byte) {
	if p == nil || cap(b) != p.sealed {
		return
	}
	b = b[:p.sealed]
	if scribbleFreed {
		for i := range b {
			b[i] = 0xA5
		}
	}
	p.free = append(p.free, b)
}

// open decrypts one sealed slot into a pool buffer. A nil slot has never
// been written and opens as the zero block.
func (p *payloads) open(sealed []byte) []byte {
	p.opens++
	pt := p.get()
	if sealed == nil {
		clear(pt)
	} else if err := p.eng.Open(pt, sealed); err != nil {
		panic(fmt.Sprintf("oram: corrupt ciphertext: %v", err))
	}
	return pt
}

// keep copies one sealed slot, a shadow's (never nil: a shadow exists only
// once a path write has sealed its bucket), into a pool buffer unopened.
func (p *payloads) keep(sealed []byte) []byte {
	b := p.get()[:p.sealed]
	copy(b, sealed)
	return b
}

// isSealed reports whether b, a payload open or keep produced, is still
// a ciphertext.
func (p *payloads) isSealed(b []byte) bool { return len(b) == p.sealed }

// seal encrypts plaintext (nil: the zero block) into dst, a path window.
func (p *payloads) seal(dst, plaintext []byte) {
	if plaintext == nil {
		plaintext = p.zero
	}
	p.eng.Seal(dst, plaintext)
}
