// Package crypt provides the probabilistic block encryption used by the
// functional ORAM mode. Every write re-encrypts the block under a fresh
// one-time pad (AES-128 in counter mode with a never-repeating nonce), so
// any two ciphertexts — dummy or data, equal plaintext or not — are
// computationally indistinguishable, as the ORAM security argument
// requires (§II-C).
//
// # Nonce scheme
//
// The 16-byte CTR nonce is split in two halves:
//
//	bytes 0..7   per-engine random prefix, drawn from crypto/rand at
//	             engine construction
//	bytes 8..15  big-endian block counter
//
// Each engine runs one AES-CTR keystream from IV = prefix‖0, so keystream
// block k is AES(prefix‖k). Seal stamps the counter of the next unused
// block and takes max(1, ⌈n/16⌉) blocks for an n-byte plaintext (an empty
// seal still consumes one, so every seal has its own nonce); the tail of a
// partial last block is discarded. Every ciphertext is therefore plain
// AES-CTR over its own 16-byte nonce, exactly as crypto/cipher defines it,
// and Open needs nothing but the key and the nonce that travels with it.
//
// Nonces never repeat. Within an engine the counter only grows (a mutex
// orders concurrent seals), and no carry reaches the prefix before 2^64
// blocks. Across engines the random prefixes differ except with
// negligible (2^-64 per pair) probability, so two engines built from the
// same key — e.g. a server restarted over a persistent file backend —
// never replay the pad stream against ciphertexts the previous incarnation
// already wrote.
//
// The timing simulations never call into this package; they model the
// paper's 32-cycle AES latency as a constant instead.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// NonceSize is the bytes of nonce prepended to every ciphertext.
const NonceSize = 16

// Engine encrypts and decrypts fixed-size blocks. It is safe for
// concurrent use: the keystream and its counter are guarded by mu.
type Engine struct {
	block  cipher.Block
	prefix [8]byte // random per-engine nonce prefix (bytes 0..7)

	mu      sync.Mutex
	stream  cipher.Stream // AES-CTR from IV = prefix‖0
	counter uint64        // keystream blocks consumed
	discard [aes.BlockSize]byte
}

// NewEngine builds an engine from a 16-byte key. Each engine draws a fresh
// random nonce prefix, so engines sharing a key still produce disjoint
// pad streams (see the package comment's nonce scheme).
func NewEngine(key []byte) (*Engine, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("crypt: key must be 16 bytes, got %d", len(key))
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	e := &Engine{block: b}
	if _, err := rand.Read(e.prefix[:]); err != nil {
		return nil, fmt.Errorf("crypt: drawing nonce prefix: %w", err)
	}
	var iv [aes.BlockSize]byte
	copy(iv[:], e.prefix[:])
	e.stream = cipher.NewCTR(b, iv[:])
	return e, nil
}

// Seal writes nonce||ciphertext of plaintext into dst, which must be
// exactly NonceSize+len(plaintext) bytes and must not overlap plaintext.
// It allocates nothing: the functional ORAM seals every slot of a path
// straight into its staged buckets. Each call takes the engine keystream's
// next max(1, ⌈len(plaintext)/16⌉) blocks, so sealing the same plaintext
// twice — even from concurrent goroutines — yields unrelated ciphertexts.
func (e *Engine) Seal(dst, plaintext []byte) {
	if len(dst) != NonceSize+len(plaintext) {
		panic(fmt.Sprintf("crypt: Seal into %d bytes, want %d", len(dst), NonceSize+len(plaintext)))
	}
	blocks := max(1, (len(plaintext)+aes.BlockSize-1)/aes.BlockSize)
	e.mu.Lock()
	copy(dst[:8], e.prefix[:])
	binary.BigEndian.PutUint64(dst[8:NonceSize], e.counter)
	e.counter += uint64(blocks)
	e.stream.XORKeyStream(dst[NonceSize:], plaintext)
	if tail := blocks*aes.BlockSize - len(plaintext); tail > 0 {
		e.stream.XORKeyStream(e.discard[:tail], e.discard[:tail])
	}
	e.mu.Unlock()
}

// Open writes the plaintext of sealed into dst, which must be exactly
// len(sealed)-NonceSize bytes and must not overlap sealed. The nonce
// travels with the ciphertext, so any engine holding the key can open it —
// including one with a different nonce prefix than the sealer's. Like Seal
// it allocates nothing.
func (e *Engine) Open(dst, sealed []byte) error {
	if len(sealed) < NonceSize {
		return errors.New("crypt: ciphertext shorter than nonce")
	}
	if len(dst) != len(sealed)-NonceSize {
		return fmt.Errorf("crypt: Open into %d bytes, want %d", len(dst), len(sealed)-NonceSize)
	}
	e.xorKeyStream(dst, sealed[NonceSize:], sealed[:NonceSize])
	return nil
}

// Encrypt is Seal into a fresh buffer.
func (e *Engine) Encrypt(plaintext []byte) []byte {
	out := make([]byte, NonceSize+len(plaintext))
	e.Seal(out, plaintext)
	return out
}

// Decrypt is Open into a fresh buffer.
func (e *Engine) Decrypt(sealed []byte) ([]byte, error) {
	out := make([]byte, max(len(sealed)-NonceSize, 0))
	if err := e.Open(out, sealed); err != nil {
		return nil, err
	}
	return out, nil
}

// ctrScratch is one call's counter and pad block. cipher.Block is an
// interface, so anything passed to it escapes; pooling the pair keeps
// Open allocation-free without giving up concurrent use.
type ctrScratch struct{ ctr, pad [aes.BlockSize]byte }

var scratchPool = sync.Pool{New: func() any { return new(ctrScratch) }}

// xorKeyStream is AES-CTR as crypto/cipher defines it (the nonce is a
// 128-bit big-endian counter, incremented once per block), without
// cipher.NewCTR's per-call stream object and 512-byte buffer: Open's nonce
// is arbitrary, so it cannot continue the engine's keystream.
func (e *Engine) xorKeyStream(dst, src, nonce []byte) {
	sc := scratchPool.Get().(*ctrScratch)
	copy(sc.ctr[:], nonce)
	for len(src) > 0 {
		e.block.Encrypt(sc.pad[:], sc.ctr[:])
		n := subtle.XORBytes(dst, src, sc.pad[:])
		dst, src = dst[n:], src[n:]
		for i := len(sc.ctr) - 1; i >= 0; i-- {
			sc.ctr[i]++
			if sc.ctr[i] != 0 {
				break
			}
		}
	}
	scratchPool.Put(sc)
}
