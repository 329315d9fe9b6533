package experiments

import (
	"strings"
	"testing"

	"shadowblock/internal/trace"
)

// testRunner keeps the integration tests fast: three representative
// workloads at reduced scale. Shape assertions use generous tolerances —
// orderings, not magnitudes.
func testRunner() Runner {
	var wl []trace.Profile
	for _, n := range []string{"mcf", "namd", "hmmer"} {
		p, ok := trace.ByName(n)
		if !ok {
			panic("missing profile " + n)
		}
		wl = append(wl, p)
	}
	return Runner{Refs: 8000, Seed: 7, Workloads: wl}
}

func TestTableI(t *testing.T) {
	s := TableI()
	for _, want := range []string{"DDR3-1333", "eviction rate A", "PLB"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFig08Shapes(t *testing.T) {
	d, err := Fig08(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != 3 {
		t.Fatalf("workloads = %v", d.Workloads)
	}
	for i := range d.Workloads {
		if tot := d.Tiny[i][0] + d.Tiny[i][1]; tot < 0.99 || tot > 1.01 {
			t.Errorf("%s: tiny total %f != 1", d.Workloads[i], tot)
		}
		if d.RD[i][0]+d.RD[i][1] > 1.03 {
			t.Errorf("%s: RD-Dup made things much worse", d.Workloads[i])
		}
		if d.HD[i][0] > d.Tiny[i][0]+0.01 {
			t.Errorf("%s: HD-Dup increased data access time (%f > %f)",
				d.Workloads[i], d.HD[i][0], d.Tiny[i][0])
		}
	}
	if !strings.Contains(d.Render(), "gmean") {
		t.Error("render missing gmean row")
	}
}

func TestFig13TimingProtection(t *testing.T) {
	d, err := Fig13(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if !d.TimingProtection {
		t.Fatal("Fig13 must run with timing protection")
	}
	// With timing protection the DRI share grows (dummy requests land in
	// it) relative to Fig 8's — spot check the tiny decomposition.
	d8, err := Fig08(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	var tp, ntp float64
	for i := range d.Workloads {
		tp += d.Tiny[i][1]
		ntp += d8.Tiny[i][1]
	}
	if tp <= ntp {
		t.Errorf("timing protection did not increase the DRI share: %f <= %f", tp, ntp)
	}
}

func TestFig09Sweep(t *testing.T) {
	ps, err := Fig09(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	g := ps.GmeanTotals()
	if len(g) != len(ps.Levels) {
		t.Fatalf("series length %d != levels %d", len(g), len(ps.Levels))
	}
	if ps.BestTotal > 1.01 {
		t.Errorf("best static partition (%f at P=%d) not better than Tiny", ps.BestTotal, ps.BestLevel)
	}
	if !strings.Contains(ps.Render(), "static partitioning sweep") {
		t.Error("render header missing")
	}
}

func TestFig10Sweep(t *testing.T) {
	cs, err := Fig10(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Series["gmean"]) != 8 {
		t.Fatalf("gmean series = %v", cs.Series["gmean"])
	}
	if cs.BestTotal > 1.01 {
		t.Errorf("best counter width (%f at %d-bit) not better than Tiny", cs.BestTotal, cs.BestWidth)
	}
}

func TestFig11And15Slowdowns(t *testing.T) {
	for _, fn := range []func(Runner) (*Slowdown, error){Fig11, Fig15} {
		s, err := fn(testRunner())
		if err != nil {
			t.Fatal(err)
		}
		g := s.Gmeans()
		if g[0] < 1.2 {
			t.Errorf("Tiny ORAM slowdown %f implausibly low", g[0])
		}
		// The shadow schemes must not lose to Tiny on the gmean.
		if g[1] > g[0]*1.005 || g[2] > g[0]*1.005 {
			t.Errorf("shadow schemes slower than Tiny: %v", g)
		}
	}
}

func TestFig12Energy(t *testing.T) {
	e, err := Fig12(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	g := e.Gmeans()
	if g[0] < 2 {
		t.Errorf("ORAM energy overhead %f implausibly low", g[0])
	}
	if g[2] > g[0]*1.005 {
		t.Errorf("dynamic-3 energy above Tiny: %v", g)
	}
}

func TestFig16HitRates(t *testing.T) {
	h, err := Fig16(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	m := h.Means()
	// Shadow must raise the on-chip hit rate for both treetop depths.
	if m[1] < m[0] {
		t.Errorf("shadow+treetop-3 hit rate %f below treetop-3 %f", m[1], m[0])
	}
	if m[3] < m[2] {
		t.Errorf("shadow+treetop-7 hit rate %f below treetop-7 %f", m[3], m[2])
	}
}

func TestFig17Speedups(t *testing.T) {
	sp, err := Fig17(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	g := sp.Gmeans()
	// shadow+treetop-7 should lead, and everything should be >= ~parity.
	for i, v := range g {
		if v < 0.97 {
			t.Errorf("scheme %s slower than Tiny: %f", sp.SchemeNames[i], v)
		}
	}
	if g[3] < g[1]*0.995 {
		t.Errorf("shadow+treetop-7 (%f) not ahead of plain shadow (%f)", g[3], g[1])
	}
}

func TestFig18CPUTypes(t *testing.T) {
	f, err := Fig18(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	gi, go3 := f.Gmeans()
	if gi <= 0 || go3 <= 0 {
		t.Fatalf("bad speedups %f %f", gi, go3)
	}
}

func TestFig19Sizes(t *testing.T) {
	r := testRunner()
	r.Refs = 5000
	s, err := Fig19(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Speedups) != 5 {
		t.Fatalf("sizes = %v", s.Labels)
	}
	for i, v := range s.Speedups {
		if v < 0.97 {
			t.Errorf("size %s: shadow slower than Tiny (%f)", s.Labels[i], v)
		}
	}
}

func TestFig06Motivation(t *testing.T) {
	r := testRunner()
	f, err := Fig06(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Intervals) == 0 || len(f.CyclesAt) != 3 {
		t.Fatalf("missing panels: %d intervals, %d schemes", len(f.Intervals), len(f.CyclesAt))
	}
	fc := f.FinalCycles()
	for i, v := range fc {
		if v <= 0 {
			t.Fatalf("scheme %s: final cycles %d", f.Schemes[i], v)
		}
	}
}

func TestAblationChannels(t *testing.T) {
	a, err := Ablation(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Workloads {
		if a.Full[i] > 1.03 || a.ForwardOnly[i] > 1.03 {
			t.Errorf("%s: ablation variants slower than Tiny: %f / %f",
				a.Workloads[i], a.Full[i], a.ForwardOnly[i])
		}
	}
	if !strings.Contains(a.Render(), "early-fwd") {
		t.Error("ablation render incomplete")
	}
}

// TestRingMatrix: the Ring study's claims, read off the engine matrix over
// RingSchemes (plain Ring, shadow Ring, Tiny).
func TestRingMatrix(t *testing.T) {
	r := testRunner()
	r.Refs = 5000
	f, err := EngineMatrix(r, RingSchemes())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range f.Workloads {
		plain, shadow, tiny := f.Cells[i][0], f.Cells[i][1], f.Cells[i][2]
		if shadow.Speedup < 0.95 {
			t.Errorf("%s: shadow Ring much slower than plain (%f)", w, shadow.Speedup)
		}
		// Ring's selling point: far fewer blocks per request than Tiny.
		if plain.BlocksPerReq >= tiny.BlocksPerReq {
			t.Errorf("%s: ring blocks/request %f not below tiny %f", w, plain.BlocksPerReq, tiny.BlocksPerReq)
		}
	}
	if !strings.Contains(f.Render(), "speedup vs ring:tiny") {
		t.Error("render header missing")
	}
}

func TestOccupancyRule3(t *testing.T) {
	r := testRunner()
	r.Refs = 4000
	f, err := Occupancy(r)
	if err != nil {
		t.Fatal(err)
	}
	if !f.AllEqualTiny() {
		t.Fatalf("Rule-3 violated:\n%s", f.Render())
	}
}
