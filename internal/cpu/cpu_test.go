package cpu

import (
	"testing"

	"shadowblock/internal/metrics"
	"shadowblock/internal/trace"
)

// flatMemory returns data after a fixed latency, tracking requests.
type flatMemory struct {
	latency  int64
	requests int
	writes   int
}

func (m *flatMemory) Issue(now int64, _ int, addr uint32, write bool) (int64, int64) {
	m.requests++
	if write {
		m.writes++
	}
	return now + m.latency, now + m.latency
}

// run plays one materialised trace per core: the slices wrapped as
// trace.Sources for RunSources.
func run(cfg Config, traces [][]trace.Access, mem CoreMemory) (Result, error) {
	srcs := make([]trace.Source, len(traces))
	for i, tr := range traces {
		srcs[i] = trace.NewSliceSource(tr)
	}
	return RunSources(cfg, srcs, mem)
}

func genTrace(p trace.Profile, n int, seed uint64) []trace.Access {
	return p.MustGenerate(n, seed)
}

func TestValidate(t *testing.T) {
	if err := InOrder().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := O3().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Config{Cores: 0, MLP: 1, LineBytes: 64}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestTraceCountMismatch(t *testing.T) {
	mem := &flatMemory{latency: 100}
	if _, err := run(InOrder(), nil, mem); err == nil {
		t.Fatal("missing traces accepted")
	}
}

func TestSmallFootprintHitsCaches(t *testing.T) {
	// A working set inside the L1 should generate almost no misses.
	p := trace.Profile{Name: "tiny", FootprintBlocks: 64, MeanGap: 10}
	mem := &flatMemory{latency: 1000}
	res, err := run(InOrder(), [][]trace.Access{genTrace(p, 5000, 1)}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCMisses > 70 {
		t.Fatalf("L1-resident workload missed %d times", res.LLCMisses)
	}
	if res.L1Hits < 4800 {
		t.Fatalf("L1 hits = %d", res.L1Hits)
	}
}

func TestLargeFootprintMisses(t *testing.T) {
	p := trace.Profile{Name: "big", FootprintBlocks: 1 << 20, MeanGap: 10}
	mem := &flatMemory{latency: 1000}
	res, err := run(InOrder(), [][]trace.Access{genTrace(p, 3000, 2)}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.LLCMisses) < 0.9*float64(res.References) {
		t.Fatalf("uniform huge footprint should mostly miss: %d/%d", res.LLCMisses, res.References)
	}
}

func TestCyclesGrowWithLatency(t *testing.T) {
	p := trace.Profile{Name: "big", FootprintBlocks: 1 << 20, MeanGap: 10}
	tr := genTrace(p, 2000, 3)
	fast, _ := run(InOrder(), [][]trace.Access{tr}, &flatMemory{latency: 100})
	slow, _ := run(InOrder(), [][]trace.Access{tr}, &flatMemory{latency: 2000})
	if slow.Cycles <= fast.Cycles {
		t.Fatalf("latency did not slow the run: %d vs %d", slow.Cycles, fast.Cycles)
	}
}

func TestO3OverlapsMisses(t *testing.T) {
	// With no dependencies, an O3 core with MLP=8 should finish much
	// faster than in-order on a miss-heavy trace.
	p := trace.Profile{Name: "big", FootprintBlocks: 1 << 20, MeanGap: 5}
	tr := genTrace(p, 2000, 4)
	o3cfg := O3()
	o3cfg.Cores = 1
	inorder, _ := run(InOrder(), [][]trace.Access{tr}, &flatMemory{latency: 1000})
	o3, _ := run(o3cfg, [][]trace.Access{tr}, &flatMemory{latency: 1000})
	if float64(o3.Cycles) > 0.5*float64(inorder.Cycles) {
		t.Fatalf("O3 (%d) not much faster than in-order (%d)", o3.Cycles, inorder.Cycles)
	}
}

func TestDependenciesSerialiseO3(t *testing.T) {
	p := trace.Profile{Name: "chase", FootprintBlocks: 1 << 20, MeanGap: 5, PointerChase: 1.0}
	tr := genTrace(p, 2000, 5)
	o3cfg := O3()
	o3cfg.Cores = 1
	inorder, _ := run(InOrder(), [][]trace.Access{tr}, &flatMemory{latency: 1000})
	o3, _ := run(o3cfg, [][]trace.Access{tr}, &flatMemory{latency: 1000})
	if float64(o3.Cycles) < 0.8*float64(inorder.Cycles) {
		t.Fatalf("fully dependent O3 run (%d) should approach in-order (%d)", o3.Cycles, inorder.Cycles)
	}
}

func TestMultiCoreSharesMemory(t *testing.T) {
	p := trace.Profile{Name: "big", FootprintBlocks: 1 << 20, MeanGap: 50}
	cfg := O3()
	traces := make([][]trace.Access, cfg.Cores)
	for i := range traces {
		traces[i] = genTrace(p, 500, uint64(10+i))
	}
	mem := &flatMemory{latency: 500}
	res, err := run(cfg, traces, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.References != uint64(cfg.Cores)*500 {
		t.Fatalf("references = %d", res.References)
	}
}

func TestWritebacksReachMemory(t *testing.T) {
	// Write-heavy workload larger than L2 must produce dirty evictions.
	p := trace.Profile{Name: "wr", FootprintBlocks: 1 << 18, MeanGap: 5, WriteFraction: 1.0}
	mem := &flatMemory{latency: 100}
	res, err := run(InOrder(), [][]trace.Access{genTrace(p, 30000, 6)}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writebacks == 0 {
		t.Fatal("no writebacks")
	}
	if mem.writes == 0 {
		t.Fatal("writebacks did not reach memory")
	}
}

func TestNonTemporalBypassesAllocation(t *testing.T) {
	// Non-temporal accesses to a small region must keep missing: they never
	// allocate, so each reaches memory.
	var tr []trace.Access
	for i := 0; i < 500; i++ {
		tr = append(tr, trace.Access{Block: uint32(i % 8), Gap: 10, NonTemporal: true})
	}
	mem := &flatMemory{latency: 100}
	res, err := run(InOrder(), [][]trace.Access{tr}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCMisses != 500 {
		t.Fatalf("NT accesses hit caches: misses=%d", res.LLCMisses)
	}
	// The same pattern with allocation hits after the first touches.
	for i := range tr {
		tr[i].NonTemporal = false
	}
	res2, _ := run(InOrder(), [][]trace.Access{tr}, &flatMemory{latency: 100})
	if res2.LLCMisses > 8 {
		t.Fatalf("allocating accesses missed %d times", res2.LLCMisses)
	}
}

func TestNonTemporalStillHitsResidentLines(t *testing.T) {
	var tr []trace.Access
	tr = append(tr, trace.Access{Block: 1, Gap: 5})                    // allocates
	tr = append(tr, trace.Access{Block: 1, Gap: 5, NonTemporal: true}) // probes, hits
	mem := &flatMemory{latency: 100}
	res, err := run(InOrder(), [][]trace.Access{tr}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCMisses != 1 || res.L1Hits != 1 {
		t.Fatalf("misses=%d l1=%d, want 1/1", res.LLCMisses, res.L1Hits)
	}
}

func TestMissLatencyMergedAcrossCores(t *testing.T) {
	// Four cores record per-core miss histograms; RunSources merges them into the
	// collector. Every LLC miss (demand misses only — writebacks are fire-
	// and-forget) must be accounted, with the flat memory's latency.
	p := trace.Profile{Name: "big", FootprintBlocks: 1 << 16, MeanGap: 2}
	cfg := O3()
	cfg.Metrics = metrics.New(metrics.Options{})
	traces := make([][]trace.Access, cfg.Cores)
	for i := range traces {
		traces[i] = genTrace(p, 3000, uint64(i+1))
	}
	mem := &flatMemory{latency: 500}
	res, err := run(cfg, traces, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLCMisses == 0 {
		t.Fatal("no misses to merge")
	}
	h := cfg.Metrics.MissLatency
	if h.Count() != res.LLCMisses {
		t.Fatalf("merged histogram has %d samples, want %d misses", h.Count(), res.LLCMisses)
	}
	// Flat memory: every miss takes exactly latency cycles beyond issue.
	if h.Min() != 500 || h.Max() != 500 {
		t.Fatalf("flat-latency histogram spans [%d,%d], want [500,500]", h.Min(), h.Max())
	}
}

func TestRunWithoutMetricsRecordsNothing(t *testing.T) {
	p := trace.Profile{Name: "big", FootprintBlocks: 1 << 16, MeanGap: 2}
	mem := &flatMemory{latency: 500}
	if _, err := run(InOrder(), [][]trace.Access{genTrace(p, 2000, 1)}, mem); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyL1VictimsWriteBackIntoL2(t *testing.T) {
	// Single-line L1 and L2 make every victim explicit. Writing A then
	// reading B evicts A dirty from the L1; that victim must land in the
	// L2 (displacing whatever is there) so that when the L2 in turn drops
	// it, the write reaches memory. Before the fix the L1 victim was
	// silently discarded, so A's second journey to memory never happened.
	cfg := Config{
		Cores: 1, MLP: 1,
		L1Bytes: 64, L1Ways: 1,
		L2Bytes: 64, L2Ways: 1,
		LineBytes: 64, L1Latency: 1, L2Latency: 10,
	}
	tr := []trace.Access{
		{Block: 1, Write: true, Gap: 5}, // A dirty in L1 and L2
		{Block: 2, Gap: 5},              // evicts A from both; A re-enters L2 dirty
		{Block: 3, Gap: 5},              // L2 drops A again: second memory write
	}
	mem := &flatMemory{latency: 100}
	res, err := run(cfg, [][]trace.Access{tr}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writebacks != 2 {
		t.Fatalf("writebacks = %d, want 2 (A dropped dirty from the L2 twice)", res.Writebacks)
	}
	// One demand write (the miss on A) plus the two writebacks.
	if mem.writes != 3 {
		t.Fatalf("memory write requests = %d, want 3", mem.writes)
	}
}

func TestCleanL1VictimsStaySilent(t *testing.T) {
	// The same shape with a read-only working set must not invent L2
	// traffic: clean L1 victims are dropped, not written back.
	cfg := Config{
		Cores: 1, MLP: 1,
		L1Bytes: 64, L1Ways: 1,
		L2Bytes: 64, L2Ways: 1,
		LineBytes: 64, L1Latency: 1, L2Latency: 10,
	}
	tr := []trace.Access{
		{Block: 1, Gap: 5},
		{Block: 2, Gap: 5},
		{Block: 3, Gap: 5},
	}
	mem := &flatMemory{latency: 100}
	res, err := run(cfg, [][]trace.Access{tr}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writebacks != 0 || mem.writes != 0 {
		t.Fatalf("read-only run produced writebacks=%d memory writes=%d", res.Writebacks, mem.writes)
	}
}
