package experiments

import (
	"reflect"
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
	s := tableI().Render()
	for _, want := range []string{"DDR3-1333", "eviction rate A", "PLB"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

// total sums a decomposition's data and interval columns for one scheme.
func total(d *Table, scheme string, i int) float64 {
	return d.Col(scheme + "-data")[i] + d.Col(scheme + "-int")[i]
}

func TestFig08Shapes(t *testing.T) {
	d, err := decomposition(testRunner(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 3 {
		t.Fatalf("rows = %v", d.Rows)
	}
	for i, r := range d.Rows {
		if tot := total(d, "tiny", i); tot < 0.99 || tot > 1.01 {
			t.Errorf("%s: tiny total %f != 1", r.Label, tot)
		}
		if total(d, "rd", i) > 1.03 {
			t.Errorf("%s: RD-Dup made things much worse", r.Label)
		}
		if hd, tiny := d.Col("hd-data")[i], d.Col("tiny-data")[i]; hd > tiny+0.01 {
			t.Errorf("%s: HD-Dup increased data access time (%f > %f)", r.Label, hd, tiny)
		}
	}
	if !strings.Contains(d.Render(), "gmean") {
		t.Error("render missing gmean row")
	}
}

func TestFig13TimingProtection(t *testing.T) {
	d, err := decomposition(testRunner(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d.Title, "Fig 13 (timing protection)") {
		t.Fatalf("Fig13 must run with timing protection: %q", d.Title)
	}
	// With timing protection the DRI share grows (dummy requests land in
	// it) relative to Fig 8's — spot check the tiny decomposition.
	d8, err := decomposition(testRunner(), false)
	if err != nil {
		t.Fatal(err)
	}
	var tp, ntp float64
	for i := range d.Rows {
		tp += d.Col("tiny-int")[i]
		ntp += d8.Col("tiny-int")[i]
	}
	if tp <= ntp {
		t.Errorf("timing protection did not increase the DRI share: %f <= %f", tp, ntp)
	}
}

func TestFig09Sweep(t *testing.T) {
	ps, err := partitionSweep(testRunner(), false)
	if err != nil {
		t.Fatal(err)
	}
	g := ps.Summary()
	if len(g) != 10 {
		t.Fatalf("gmean series length %d != 10 levels", len(g))
	}
	if best := argmin(g); g[best] > 1.01 {
		t.Errorf("best static partition (%f at %s) not better than Tiny", g[best], ps.Columns[best].Name)
	}
	if !strings.Contains(ps.Render(), "static partitioning sweep") {
		t.Error("render header missing")
	}
}

func TestFig10Sweep(t *testing.T) {
	cs, err := fig10(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	g := cs.Summary()
	if len(g) != 8 {
		t.Fatalf("gmean series = %v", g)
	}
	if best := argmin(g); g[best] > 1.01 {
		t.Errorf("best counter width (%f at %s) not better than Tiny", g[best], cs.Columns[best].Name)
	}
}

func TestFig11And15Slowdowns(t *testing.T) {
	for _, fig := range []struct {
		tp    bool
		level int
	}{{false, 7}, {true, 4}} {
		s, err := slowdowns(testRunner(), fig.tp, fig.level)
		if err != nil {
			t.Fatal(err)
		}
		g := s.Summary()
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
	e, err := fig12(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	g := e.Summary()
	if g[0] < 2 {
		t.Errorf("ORAM energy overhead %f implausibly low", g[0])
	}
	if g[2] > g[0]*1.005 {
		t.Errorf("dynamic-3 energy above Tiny: %v", g)
	}
}

func TestFig16HitRates(t *testing.T) {
	h, err := fig16(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	m := h.Summary()
	// Shadow must raise the on-chip hit rate for both treetop depths.
	if m[1] < m[0] {
		t.Errorf("shadow+treetop-3 hit rate %f below treetop-3 %f", m[1], m[0])
	}
	if m[3] < m[2] {
		t.Errorf("shadow+treetop-7 hit rate %f below treetop-7 %f", m[3], m[2])
	}
}

func TestFig17Speedups(t *testing.T) {
	sp, err := fig17(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	g := sp.Summary()
	// shadow+treetop-7 should lead, and everything should be >= ~parity.
	for i, v := range g {
		if v < 0.97 {
			t.Errorf("scheme %s slower than Tiny: %f", sp.Columns[i].Name, v)
		}
	}
	if g[3] < g[1]*0.995 {
		t.Errorf("shadow+treetop-7 (%f) not ahead of plain shadow (%f)", g[3], g[1])
	}
}

func TestFig18CPUTypes(t *testing.T) {
	f, err := fig18(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	g := f.Summary()
	if len(g) != 2 || g[0] <= 0 || g[1] <= 0 {
		t.Fatalf("bad speedups %v", g)
	}
}

func TestFig19Sizes(t *testing.T) {
	r := testRunner()
	r.Refs = 5000
	s, err := fig19(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 5 {
		t.Fatalf("sizes = %v", s.Rows)
	}
	for i, v := range s.Col("gmean speedup") {
		if v < 0.97 {
			t.Errorf("size %s: shadow slower than Tiny (%f)", s.Rows[i].Label, v)
		}
	}
}

func TestFig06Motivation(t *testing.T) {
	r := testRunner()
	p, _ := trace.ByName("hmmer")
	f, err := fig06(r, p)
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

// TestFig06RejectsOversizedFootprint: Fig 6 drives the controller with
// trace addresses directly, so a profile larger than the ORAM data space
// must be sim.Run's footprint error, not folded onto aliased blocks (which
// would silently inflate hit rates).
func TestFig06RejectsOversizedFootprint(t *testing.T) {
	p, _ := trace.ByName("hmmer")
	big := p.Scaled(8, 1) // 1.5 Mi blocks into a 1 Mi-block data space
	_, err := fig06(Runner{Refs: 500, Seed: 7}, big)
	if err == nil || !strings.Contains(err.Error(), "footprint") || !strings.Contains(err.Error(), "L >= 19") {
		t.Fatalf("err = %v, want the footprint error naming L >= 19", err)
	}
}

func TestAblationChannels(t *testing.T) {
	a, err := ablation(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	full, fwd := a.Col("full"), a.Col("forward-only")
	for i, r := range a.Rows {
		if full[i] > 1.03 || fwd[i] > 1.03 {
			t.Errorf("%s: ablation variants slower than Tiny: %f / %f", r.Label, full[i], fwd[i])
		}
	}
	if !strings.Contains(a.Render(), "early-fwd") {
		t.Error("ablation render incomplete")
	}
}

// TestRingMatrix: the Ring study's claims, read off the engine matrix over
// ringSchemes (plain Ring, shadow Ring, Tiny).
func TestRingMatrix(t *testing.T) {
	r := testRunner()
	r.Refs = 5000
	f, err := engineMatrix(r, ringSchemes)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range f.Workloads {
		plain, shadow, tiny := f.Cells[i][0], f.Cells[i][1], f.Cells[i][2]
		if shadow.Speedup < 0.95 {
			t.Errorf("%s: shadow Ring much slower than plain (%f)", w, shadow.Speedup)
		}
		// Ring's selling point: a read touches one slot per bucket, so on
		// the same position map it reads far fewer blocks per request than
		// Tiny. It writes more (an eviction rewrites all Z+S slots of a path
		// every A=3 reads), so it does not move fewer blocks in total.
		if plain.ReadsPerReq >= 0.9*tiny.ReadsPerReq {
			t.Errorf("%s: ring reads %f blocks/request, not far below tiny's %f", w, plain.ReadsPerReq, tiny.ReadsPerReq)
		}
	}
	if !strings.Contains(f.Render(), "speedup vs ring:tiny") {
		t.Error("render header missing")
	}
}

func TestOccupancyRule3(t *testing.T) {
	r := testRunner()
	r.Refs = 4000
	f, err := occupancy(r)
	if err != nil {
		t.Fatal(err)
	}
	tiny := f.Col("tiny-real")
	for _, c := range []string{"rd-real", "hd-real", "s4-real", "d3-real"} {
		if got := f.Col(c); !reflect.DeepEqual(got, tiny) {
			t.Errorf("Rule-3 violated: %s %v != tiny %v", c, got, tiny)
		}
	}
	if !strings.HasPrefix(f.Note, "EQUAL") {
		t.Fatalf("Rule-3 violated:\n%s", f.Render())
	}
}

// TestRegistryNamesUnique: paperbench's case-insensitive -only and
// results/<name>.txt both key on the experiment name.
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry(nil) {
		if seen[strings.ToLower(e.Name)] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[strings.ToLower(e.Name)] = true
	}
}
