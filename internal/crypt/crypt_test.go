package crypt

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(bytes.Repeat([]byte{7}, 16))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRoundTrip(t *testing.T) {
	e := newEngine(t)
	f := func(pt []byte) bool {
		ct := e.Encrypt(pt)
		got, err := e.Decrypt(ct)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProbabilisticCiphertexts(t *testing.T) {
	e := newEngine(t)
	pt := bytes.Repeat([]byte{0xAB}, 64)
	a := e.Encrypt(pt)
	b := e.Encrypt(pt)
	if bytes.Equal(a, b) {
		t.Fatal("re-encrypting the same plaintext produced an identical ciphertext")
	}
}

func TestBadKeyRejected(t *testing.T) {
	if _, err := NewEngine([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestShortCiphertextRejected(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Decrypt([]byte{1, 2, 3}); err == nil {
		t.Fatal("short ciphertext accepted")
	}
}

// TestConcurrentEncryptUniqueNonces is the regression test for the nonce
// counter race: before the counter became atomic, concurrent Encrypt calls
// could read-modify-write the same value and emit two ciphertexts under
// one pad (a classic CTR one-time-pad reuse). Run under -race this also
// exercises the data race itself.
func TestConcurrentEncryptUniqueNonces(t *testing.T) {
	e := newEngine(t)
	const workers, perWorker = 8, 250
	pt := bytes.Repeat([]byte{0x5A}, 32)

	nonces := make([][]byte, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ct := e.Encrypt(pt)
				nonces[w*perWorker+i] = ct[:NonceSize]
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[string]bool, len(nonces))
	for _, n := range nonces {
		if seen[string(n)] {
			t.Fatalf("nonce %x used twice: one-time pad reused", n)
		}
		seen[string(n)] = true
	}
}

// TestRebuiltEngineDoesNotReplayPads is the regression test for the
// cross-restart pad reuse: two engines built from the same key restart
// their counters at zero, so without the random per-engine nonce prefix
// their first ciphertexts would share a pad (identical nonce → XOR of the
// two ciphertexts equals XOR of the plaintexts).
func TestRebuiltEngineDoesNotReplayPads(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 16)
	a, err := NewEngine(key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(key)
	if err != nil {
		t.Fatal(err)
	}
	pt := bytes.Repeat([]byte{0xC3}, 48)
	ca := a.Encrypt(pt)
	cb := b.Encrypt(pt)
	if bytes.Equal(ca[:NonceSize], cb[:NonceSize]) {
		t.Fatal("two engines from the same key produced the same nonce")
	}
	if bytes.Equal(ca[NonceSize:], cb[NonceSize:]) {
		t.Fatal("two engines from the same key produced the same pad")
	}
	// Cross-engine decryption must still work: the nonce travels with the
	// ciphertext.
	got, err := b.Decrypt(ca)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("cross-engine decryption failed")
	}
}

// TestNonceLayout pins the wire format: counter in bytes 0..7, per-engine
// prefix in bytes 8..15, constant across calls within one engine.
func TestNonceLayout(t *testing.T) {
	e := newEngine(t)
	c1 := e.Encrypt(nil)
	c2 := e.Encrypt(nil)
	n1 := binary.LittleEndian.Uint64(c1[:8])
	n2 := binary.LittleEndian.Uint64(c2[:8])
	if n2 != n1+1 {
		t.Fatalf("counter not sequential: %d then %d", n1, n2)
	}
	if !bytes.Equal(c1[8:NonceSize], c2[8:NonceSize]) {
		t.Fatal("per-engine prefix changed between calls")
	}
}

// TestSealOpenCompatibleWithEncryptDecrypt pins the wire format across the
// two API generations: the hand-rolled CTR must produce exactly what
// crypto/cipher's CTR over the same nonce does, at every block boundary.
func TestSealOpenCompatibleWithEncryptDecrypt(t *testing.T) {
	e := newEngine(t)
	for _, n := range []int{0, 1, 15, 16, 17, 64} {
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i*7 + n)
		}
		sealed := make([]byte, NonceSize+n)
		e.Seal(sealed, pt)
		want := make([]byte, n)
		cipher.NewCTR(e.block, sealed[:NonceSize]).XORKeyStream(want, pt)
		if !bytes.Equal(sealed[NonceSize:], want) {
			t.Fatalf("len %d: Seal's keystream differs from cipher.NewCTR's", n)
		}
		if got, err := e.Decrypt(sealed); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("len %d: Decrypt(Seal) = %x, %v; want %x", n, got, err, pt)
		}
		got := make([]byte, n)
		if err := e.Open(got, e.Encrypt(pt)); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("len %d: Open(Encrypt) = %x, %v; want %x", n, got, err, pt)
		}
	}
	// The CTR counter is the whole 128-bit nonce, big-endian: a carry out
	// of the last byte must ripple exactly as crypto/cipher's does.
	nonce := bytes.Repeat([]byte{0xFF}, NonceSize)
	pt := bytes.Repeat([]byte{0x3C}, 48)
	got, want := make([]byte, len(pt)), make([]byte, len(pt))
	e.xorKeyStream(got, pt, nonce)
	cipher.NewCTR(e.block, nonce).XORKeyStream(want, pt)
	if !bytes.Equal(got, want) {
		t.Fatal("counter carry differs from cipher.NewCTR's")
	}
}

func TestOpenRejectsBadLengths(t *testing.T) {
	e := newEngine(t)
	if err := e.Open(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("short ciphertext accepted")
	}
	if err := e.Open(make([]byte, 3), make([]byte, NonceSize+4)); err == nil {
		t.Fatal("mis-sized destination accepted")
	}
}

// TestSealOpenZeroAlloc gates the pair the functional ORAM calls once per
// slot of every path it reads or writes.
func TestSealOpenZeroAlloc(t *testing.T) {
	e := newEngine(t)
	pt := bytes.Repeat([]byte{0xAB}, 64)
	sealed := make([]byte, NonceSize+len(pt))
	out := make([]byte, len(pt))
	got := testing.AllocsPerRun(1000, func() {
		e.Seal(sealed, pt)
		if err := e.Open(out, sealed); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("%.1f allocs per Seal+Open, want 0", got)
	}
	if !bytes.Equal(out, pt) {
		t.Fatal("round trip lost the plaintext")
	}
}

func BenchmarkSealOpen(b *testing.B) {
	e, err := NewEngine(bytes.Repeat([]byte{7}, 16))
	if err != nil {
		b.Fatal(err)
	}
	pt := make([]byte, 64)
	sealed := make([]byte, NonceSize+len(pt))
	b.ReportAllocs()
	b.SetBytes(int64(len(pt)))
	for i := 0; i < b.N; i++ {
		e.Seal(sealed, pt)
		if err := e.Open(pt, sealed); err != nil {
			b.Fatal(err)
		}
	}
}
