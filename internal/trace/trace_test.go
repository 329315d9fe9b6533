package trace

import (
	"testing"
	"testing/quick"
)

// mustGenerate is Generate for profiles a test knows to be valid.
func mustGenerate(t *testing.T, p Profile, n int, seed uint64) []Access {
	t.Helper()
	tr, err := p.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAllProfilesValid(t *testing.T) {
	ps := SPEC2006()
	if len(ps) != 10 {
		t.Fatalf("profiles = %d, want 10 (the paper evaluates ten workloads)", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("hmmer")
	if !ok || p.Name != "hmmer" {
		t.Fatalf("ByName(hmmer) = %+v, %v", p, ok)
	}
	if _, ok := ByName("quake"); ok {
		t.Fatal("unknown benchmark found")
	}
	if len(Names()) != 10 {
		t.Fatalf("Names() = %v", Names())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("mcf")
	a := mustGenerate(t, p, 500, 42)
	b := mustGenerate(t, p, 500, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := mustGenerate(t, p, 500, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateRespectsFootprint(t *testing.T) {
	for _, p := range SPEC2006() {
		tr := mustGenerate(t, p, 2000, 7)
		for i, a := range tr {
			if int(a.Block) >= p.FootprintBlocks {
				t.Fatalf("%s access %d block %d outside footprint %d", p.Name, i, a.Block, p.FootprintBlocks)
			}
			if a.Gap < 0 {
				t.Fatalf("%s access %d has negative gap", p.Name, i)
			}
		}
	}
}

func TestHotSetConcentration(t *testing.T) {
	// A hot-heavy profile must aim a large share of non-stream accesses at
	// a small region; a uniform profile must not.
	hot, _ := ByName("namd")
	count := func(p Profile) float64 {
		tr := mustGenerate(t, p, 20000, 3)
		in := 0
		for _, a := range tr {
			if int(a.Block) < p.HotBlocks {
				in++
			}
		}
		return float64(in) / float64(len(tr))
	}
	// namd's hot core covers 1.6% of its footprint but should absorb far
	// more of the accesses than a uniform draw would.
	share := float64(hot.HotBlocks) / float64(hot.FootprintBlocks)
	if got := count(hot); got < 5*share {
		t.Fatalf("hot concentration %.3f not clearly above uniform share %.3f", got, share)
	}
}

func TestPhasedGaps(t *testing.T) {
	p, _ := ByName("hmmer")
	tr := mustGenerate(t, p, 2*p.PhaseLen, 11)
	var even, odd, ne, no int64
	for i, a := range tr {
		if (i/p.PhaseLen)%2 == 0 {
			even += int64(a.Gap)
			ne++
		} else {
			odd += int64(a.Gap)
			no++
		}
	}
	if odd/no < 3*(even/ne) {
		t.Fatalf("odd-phase mean gap %d not well above even-phase %d", odd/no, even/ne)
	}
}

func TestMeanGapApproximation(t *testing.T) {
	p := Profile{Name: "t", FootprintBlocks: 1000, MeanGap: 100}
	tr := mustGenerate(t, p, 50000, 5)
	var sum int64
	for _, a := range tr {
		sum += int64(a.Gap)
	}
	mean := float64(sum) / float64(len(tr))
	if mean < 90 || mean > 110 {
		t.Fatalf("mean gap = %.1f, want ~100", mean)
	}
}

func TestWriteFraction(t *testing.T) {
	p := Profile{Name: "t", FootprintBlocks: 1000, MeanGap: 10, WriteFraction: 0.3}
	tr := mustGenerate(t, p, 50000, 5)
	w := 0
	for _, a := range tr {
		if a.Write {
			w++
		}
	}
	frac := float64(w) / float64(len(tr))
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("write fraction = %.3f, want ~0.30", frac)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{Name: "a", FootprintBlocks: 0, MeanGap: 1},
		{Name: "b", FootprintBlocks: 10, HotBlocks: 11, MeanGap: 1},
		{Name: "c", FootprintBlocks: 10, HotFraction: 1.5, MeanGap: 1},
		{Name: "d", FootprintBlocks: 10, StreamFraction: -0.1, MeanGap: 1},
		{Name: "e", FootprintBlocks: 10, MeanGap: 0},
		{Name: "f", FootprintBlocks: 10, MeanGap: 1, ZipfTheta: 1.0},
		{Name: "g", FootprintBlocks: 10, MeanGap: 1, WriteFraction: 2},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid profile accepted", p.Name)
		}
	}
}

func TestScaled(t *testing.T) {
	p, _ := ByName("mcf")
	q := p.Scaled(1, 4)
	if q.FootprintBlocks != p.FootprintBlocks/4 || q.HotBlocks != p.HotBlocks/4 {
		t.Fatalf("Scaled(1,4): %d/%d", q.FootprintBlocks, q.HotBlocks)
	}
	tiny := p.Scaled(1, 1<<30)
	if err := tiny.Validate(); err != nil {
		t.Fatalf("extreme scaling produced invalid profile: %v", err)
	}
}

func TestGenerateProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		p, _ := ByName("gcc")
		tr := mustGenerate(t, p, int(n%512), seed)
		return len(tr) == int(n%512)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
