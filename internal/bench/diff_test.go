package bench

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"shadowblock/internal/metrics"
)

// report builds a minimal v3 cell report with a ledger.
func report(cycles, pathRead int64) *metrics.Report {
	return &metrics.Report{
		Schema: metrics.Schema,
		Cycles: cycles,
		Latency: map[string]metrics.LatencyReport{
			"request_forward": {LatencySummary: metrics.LatencySummary{Count: 10, P50: cycles / 100, P99: cycles / 10}},
		},
		Ledger: &metrics.LedgerReport{
			Requests:       10,
			CompleteCycles: cycles,
			Stages: []metrics.StageEntry{
				{Stage: "queue_wait", Cycles: 100, Count: 10},
				{Stage: "path_read", Cycles: pathRead, Count: 10},
			},
		},
	}
}

// ledgerlessReport builds a cell report from a run with the ledger off
// (-no-ledger): cycles and latency only.
func ledgerlessReport(cycles int64) *metrics.Report {
	return &metrics.Report{
		Schema: metrics.Schema,
		Cycles: cycles,
		Latency: map[string]metrics.LatencyReport{
			"request_forward": {LatencySummary: metrics.LatencySummary{Count: 10, P50: 7, P99: 9}},
		},
	}
}

// TestBundleRoundTripMixedSchemas round-trips the two report shapes a
// bundle mixes: with and without the ledger section.
func TestBundleRoundTripMixedSchemas(t *testing.T) {
	b := NewBundle()
	b.Labels = map[string]string{"commit": "abc"}
	b.Add("mcf/dynamic-3", report(1_000_000, 5000))
	b.Add("mcf/dynamic-3-pipe", ledgerlessReport(900_000))

	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Cells) != 2 {
		t.Fatalf("round trip lost cells: %+v", got)
	}
	if got.Cells["mcf/dynamic-3"].Ledger == nil {
		t.Fatal("ledgered cell lost its ledger")
	}
	if got.Cells["mcf/dynamic-3-pipe"].Ledger != nil {
		t.Fatal("ledgerless cell grew a ledger")
	}
	if want := []string{"mcf/dynamic-3", "mcf/dynamic-3-pipe"}; got.Names()[0] != want[0] || got.Names()[1] != want[1] {
		t.Fatalf("names not sorted: %v", got.Names())
	}
}

func TestDecodeBundleRejectsBadSchemas(t *testing.T) {
	if _, err := DecodeBundle(strings.NewReader(`{"schema":"nope","cells":{}}`)); err == nil {
		t.Fatal("unknown bundle schema accepted")
	}
	bad := `{"schema":"` + Schema + `","cells":{"x":{"schema":"weird/v9"}}}`
	if _, err := DecodeBundle(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown cell schema accepted")
	}
	null := `{"schema":"` + Schema + `","cells":{"x":null}}`
	if _, err := DecodeBundle(strings.NewReader(null)); err == nil {
		t.Fatal("null cell accepted")
	}
}

func TestCompareIdenticalBundlesPassGate(t *testing.T) {
	b := NewBundle()
	b.Add("a", report(1_000_000, 5000))
	b.Add("b", ledgerlessReport(500_000))
	d := Compare(b, b, 0)
	if d.Regressed() || d.Changed() {
		t.Fatalf("identical bundles flagged: %+v", d.Cells)
	}
	for _, c := range d.Cells {
		if c.Status != StatusUnchanged || c.DeltaPct != 0 {
			t.Fatalf("cell %s: %+v", c.Name, c)
		}
	}
}

// TestComparePerturbedReportFailsGate is the CI gate's own regression
// test: a synthetic slowdown in one cell must fail the gate and the
// attribution movement must name the stage the cycles went to.
func TestComparePerturbedReportFailsGate(t *testing.T) {
	base := NewBundle()
	base.Add("mcf/dynamic-3", report(1_000_000, 5000))
	cur := NewBundle()
	cur.Add("mcf/dynamic-3", report(1_050_000, 55_000)) // +5% cycles, all in path_read

	d := Compare(base, cur, 0)
	if !d.Regressed() {
		t.Fatal("5% slowdown passed a zero-tolerance gate")
	}
	c := d.Cells[0]
	if c.Status != StatusRegressed || c.DeltaPct < 4.9 || c.DeltaPct > 5.1 {
		t.Fatalf("cell delta: %+v", c)
	}
	found := false
	for _, s := range c.Stages {
		if s.Stage == "path_read" && s.Delta == 50_000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("attribution movement missing path_read +50000: %+v", c.Stages)
	}

	// A wide tolerance waves the same delta through.
	if Compare(base, cur, 10).Regressed() {
		t.Fatal("5% slowdown failed a 10% gate")
	}
	// But Changed still reports movement (baseline refresh signal).
	if !Compare(base, cur, 10).Changed() {
		t.Fatal("movement within tolerance not reported as changed")
	}
}

func TestCompareImprovementPassesGateButReportsChange(t *testing.T) {
	base := NewBundle()
	base.Add("a", report(1_000_000, 5000))
	cur := NewBundle()
	cur.Add("a", report(900_000, 4000))
	d := Compare(base, cur, 0)
	if d.Regressed() {
		t.Fatal("improvement failed the gate")
	}
	if !d.Changed() || d.Cells[0].Status != StatusImproved {
		t.Fatalf("improvement not reported: %+v", d.Cells[0])
	}
}

// TestCompareCellSetDivergenceFailsGate mixes an added and a removed
// cell: the removed cell alone must fail the gate (the added one does
// not — see the dedicated tests below).
func TestCompareCellSetDivergenceFailsGate(t *testing.T) {
	base := NewBundle()
	base.Add("a", report(1000, 10))
	base.Add("b", report(2000, 10))
	cur := NewBundle()
	cur.Add("a", report(1000, 10))
	cur.Add("c", report(3000, 10))
	d := Compare(base, cur, 0)
	if !d.Regressed() {
		t.Fatal("cell-set divergence passed the gate")
	}
	status := map[string]string{}
	for _, c := range d.Cells {
		status[c.Name] = c.Status
	}
	if status["b"] != StatusRemoved || status["c"] != StatusAdded || status["a"] != StatusUnchanged {
		t.Fatalf("statuses: %v", status)
	}
	if got := d.Removed(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Removed() = %v, want [b]", got)
	}
}

// TestCompareAddedCellPassesGate pins the fixed gate semantics: a cell
// that exists only in the new bundle has no baseline to regress against,
// so a zero-tolerance gate must wave it through. It still registers as
// change (the refresh-the-baseline signal).
func TestCompareAddedCellPassesGate(t *testing.T) {
	base := NewBundle()
	base.Add("a", report(1000, 10))
	cur := NewBundle()
	cur.Add("a", report(1000, 10))
	cur.Add("new-cell", report(5000, 10))
	d := Compare(base, cur, 0)
	if d.Regressed() {
		t.Fatal("added cell tripped a zero-tolerance gate")
	}
	if !d.Changed() {
		t.Fatal("added cell not reported as change")
	}
	if got := d.Removed(); len(got) != 0 {
		t.Fatalf("Removed() = %v, want empty", got)
	}
}

// TestCompareRemovedCellFailsGate pins the other half: a baseline cell
// missing from the new bundle silently stops being tested, so it must
// fail the gate loudly even when everything still present is identical.
func TestCompareRemovedCellFailsGate(t *testing.T) {
	base := NewBundle()
	base.Add("a", report(1000, 10))
	base.Add("gone", report(2000, 10))
	cur := NewBundle()
	cur.Add("a", report(1000, 10))
	d := Compare(base, cur, 0)
	if !d.Regressed() {
		t.Fatal("removed cell passed a zero-tolerance gate")
	}
	if got := d.Removed(); len(got) != 1 || got[0] != "gone" {
		t.Fatalf("Removed() = %v, want [gone]", got)
	}
}

func TestMarkdownAndJSONRender(t *testing.T) {
	base := NewBundle()
	base.Add("mcf/dynamic-3", report(1_000_000, 5000))
	cur := NewBundle()
	cur.Add("mcf/dynamic-3", report(1_050_000, 55_000))
	d := Compare(base, cur, 0)

	md := d.Markdown()
	for _, want := range []string{"| cell |", "mcf/dynamic-3", "regressed", "path_read", "+50000"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"status": "regressed"`) {
		t.Fatalf("json delta missing status:\n%s", buf.String())
	}
}
