package trace

import "testing"

func TestConflictAddrConcentratesSets(t *testing.T) {
	const footprint = 256 << 10
	const l2Sets = 2048
	sets := map[int]bool{}
	seen := map[int]bool{}
	for rank := 0; rank < 1024; rank++ {
		a := conflictAddr(rank, footprint)
		if a < 0 || a >= footprint {
			t.Fatalf("rank %d mapped outside the footprint: %d", rank, a)
		}
		if seen[a] {
			t.Fatalf("rank %d collided at address %d", rank, a)
		}
		seen[a] = true
		sets[a%l2Sets] = true
	}
	if len(sets) > 16 {
		t.Fatalf("hot set spread over %d L2 sets; conflicts need concentration", len(sets))
	}
}

func TestConflictAddrTinyFootprint(t *testing.T) {
	for rank := 0; rank < 100; rank++ {
		if a := conflictAddr(rank, 100); a < 0 || a >= 100 {
			t.Fatalf("tiny footprint mapping out of range: %d", a)
		}
	}
}

func TestNonTemporalFlagged(t *testing.T) {
	p, _ := ByName("mcf")
	tr := mustGenerate(t, p, 20000, 3)
	nt := 0
	for _, a := range tr {
		if a.NonTemporal {
			nt++
		}
	}
	if nt == 0 {
		t.Fatal("mcf profile produced no non-temporal accesses")
	}
	p2, _ := ByName("libquantum")
	for _, a := range mustGenerate(t, p2, 5000, 3) {
		if a.NonTemporal {
			t.Fatal("libquantum should not issue non-temporal accesses")
		}
	}
}
