package trace

import "testing"

// TestStreamMatchesGenerate pins the streaming generator to the
// materialising one: every profile, several seeds and lengths, every field
// of every access identical. Generate is built on Stream, so this guards
// against the two drifting apart in a future refactor (and against Stream
// state being carried incorrectly across Next calls).
func TestStreamMatchesGenerate(t *testing.T) {
	seeds := []uint64{0, 1, 7, 42, 0xdeadbeef}
	lengths := []int{1, 2, 977, 4096}
	for _, p := range SPEC2006() {
		for _, seed := range seeds {
			for _, n := range lengths {
				want, err := p.Generate(n, seed)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				s, err := p.NewStream(n, seed)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				for i := 0; i < n; i++ {
					got, ok := s.Next()
					if !ok {
						t.Fatalf("%s seed %d: stream dry at %d/%d", p.Name, seed, i, n)
					}
					if got != want[i] {
						t.Fatalf("%s seed %d n %d: access %d differs: stream %+v generate %+v",
							p.Name, seed, n, i, got, want[i])
					}
				}
				if _, ok := s.Next(); ok {
					t.Fatalf("%s seed %d: stream yields more than %d accesses", p.Name, seed, n)
				}
			}
		}
	}
}

// TestNegativeLengthIsAnError: a negative reference count is an error from
// both generators, not a panic in Generate's make.
func TestNegativeLengthIsAnError(t *testing.T) {
	p, ok := ByName("mcf")
	if !ok {
		t.Fatal("missing mcf profile")
	}
	if s, err := p.NewStream(-1, 7); err == nil {
		t.Errorf("NewStream(-1) = %+v, want an error", s)
	}
	if tr, err := p.Generate(-1, 7); err == nil {
		t.Errorf("Generate(-1) returned %d accesses, want an error", len(tr))
	}
}

// TestStreamZeroAlloc pins Next as allocation-free: the CPU model calls it
// once per reference, so a per-access allocation here would undo the
// streaming refactor's point.
func TestStreamZeroAlloc(t *testing.T) {
	p, ok := ByName("mcf")
	if !ok {
		t.Fatal("missing mcf profile")
	}
	s, err := p.NewStream(1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(500, func() { s.Next() }); got != 0 {
		t.Errorf("Stream.Next allocates %.1f per call, want 0", got)
	}
}

// TestSliceSource pins the adapter used by replay-style callers.
func TestSliceSource(t *testing.T) {
	p, ok := ByName("namd")
	if !ok {
		t.Fatal("missing namd profile")
	}
	tr := mustGenerate(t, p, 100, 3)
	src := NewSliceSource(tr)
	for i, want := range tr {
		got, ok := src.Next()
		if !ok {
			t.Fatalf("source dry at %d", i)
		}
		if got != want {
			t.Fatalf("access %d differs", i)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("source yields past the end")
	}
}
