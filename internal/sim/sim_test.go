package sim

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/trace"
)

// histSum recovers a histogram's exact sample sum from its mean: the mean
// is the sum over the count, correctly rounded, so mean × count lands
// within half a cycle of the sum while the sum stays below 2^51.
func histSum(h *metrics.Histogram) int64 {
	return int64(math.Round(h.Mean() * float64(h.Count())))
}

func smallSpec(t *testing.T) Spec {
	t.Helper()
	p, ok := trace.ByName("sjeng")
	if !ok {
		t.Fatal("profile missing")
	}
	ocfg := oram.Default()
	ocfg.L = 12
	return Spec{
		Profile: p.Scaled(1, 16),
		CPU:     cpu.InOrder(),
		Refs:    1500,
		Seed:    1,
		ORAM:    ocfg,
	}
}

func TestRunTiny(t *testing.T) {
	m, err := Run(smallSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles <= 0 || m.DataAccess <= 0 || m.DRI < 0 {
		t.Fatalf("bad metrics: %+v", m)
	}
	if m.DataAccess+m.DRI != m.Cycles {
		t.Fatalf("eq.1 violated: %d + %d != %d", m.DataAccess, m.DRI, m.Cycles)
	}
	if m.ORAM.Requests == 0 || m.CPU.LLCMisses == 0 {
		t.Fatal("no memory traffic simulated")
	}
	if m.Energy <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestInsecureFasterThanORAM(t *testing.T) {
	spec := smallSpec(t)
	tiny, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Insecure = true
	insec, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if insec.Cycles >= tiny.Cycles {
		t.Fatalf("insecure (%d) not faster than ORAM (%d)", insec.Cycles, tiny.Cycles)
	}
	slowdown := float64(tiny.Cycles) / float64(insec.Cycles)
	if slowdown < 1.3 {
		t.Fatalf("ORAM slowdown %.2fx implausibly low", slowdown)
	}
	if insec.Energy >= tiny.Energy {
		t.Fatalf("insecure energy (%.0f) not below ORAM (%.0f)", insec.Energy, tiny.Energy)
	}
}

func TestShadowPolicyActiveAndHarmless(t *testing.T) {
	// At this tiny test scale the shadow benefit is within noise, so the
	// assertions are: the mechanism is active (shadows forwarded early or
	// served from the stash) and never meaningfully hurts. The experiments
	// package asserts the actual improvements at evaluation scale.
	spec := smallSpec(t)
	spec.Refs = 4000
	spec.ORAM.TimingProtection = true
	tiny, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	pc := core.Dynamic(3)
	spec.Policy = &pc
	shadow, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if shadow.ORAM.ShadowForwards+shadow.ORAM.ShadowStashHits == 0 {
		t.Fatal("shadow mechanism inactive")
	}
	if float64(shadow.Cycles) > 1.01*float64(tiny.Cycles) {
		t.Fatalf("dynamic-3 (%d cycles) noticeably worse than Tiny (%d)", shadow.Cycles, tiny.Cycles)
	}
}

func TestRefsValidation(t *testing.T) {
	spec := smallSpec(t)
	spec.Refs = 0
	if _, err := Run(spec); err == nil {
		t.Fatal("zero refs accepted")
	}
}

func TestTimingProtectionAddsDummies(t *testing.T) {
	spec := smallSpec(t)
	spec.ORAM.TimingProtection = true
	spec.ORAM.RequestRate = 800
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.ORAM.DummyAccesses == 0 {
		t.Fatal("timing protection issued no dummies on a gap-heavy workload")
	}
}

func TestO3ReducesCycles(t *testing.T) {
	spec := smallSpec(t)
	spec.Refs = 2500
	inorder, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.CPU = cpu.O3()
	o3, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Four O3 cores process 4x the references; per-reference throughput
	// must be higher than in-order.
	perRefIn := float64(inorder.Cycles) / float64(inorder.CPU.References)
	perRefO3 := float64(o3.Cycles) / float64(o3.CPU.References)
	if perRefO3 >= perRefIn {
		t.Fatalf("O3 per-ref %f not below in-order %f", perRefO3, perRefIn)
	}
}

// TestMetricsObservationIsFree asserts the observability layer's core
// contract: attaching a collector (with tracing) changes nothing about the
// simulated outcome — identical Cycles, breakdown, and counters for a
// fixed seed — it only adds the report. Both engines observe a request
// through the same code, so Ring is an input too.
func TestMetricsObservationIsFree(t *testing.T) {
	for _, tc := range []struct {
		engine string
		policy bool
	}{{"path", false}, {"path", true}, {"ring", true}} {
		spec := smallSpec(t)
		spec.Refs = 2500
		spec.Engine = tc.engine
		if tc.policy {
			pc := core.Dynamic(3)
			spec.Policy = &pc
		}
		plain, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Metrics = metrics.New(metrics.Options{Tracing: true})
		observed, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if observed.Cycles != plain.Cycles {
			t.Fatalf("%+v: metrics changed Cycles: %d != %d", tc, observed.Cycles, plain.Cycles)
		}
		if observed.DataAccess != plain.DataAccess || observed.DRI != plain.DRI ||
			observed.ORAM != plain.ORAM || observed.CPU != plain.CPU || observed.Mem != plain.Mem {
			t.Fatalf("%+v: metrics changed the run:\nplain    %+v\nobserved %+v", tc, plain, observed)
		}
	}
}

// TestEnginesReportSameSeries: Path and Ring observe a request through
// one function, so with the same policy and memory system their reports
// carry the same series.
func TestEnginesReportSameSeries(t *testing.T) {
	names := map[string][]string{}
	for _, engine := range []string{"path", "ring"} {
		spec := smallSpec(t)
		spec.Engine = engine
		pc := core.Dynamic(3)
		spec.Policy = &pc
		spec.Metrics = metrics.New(metrics.Options{Ledger: true})
		m, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range m.Obs.Series {
			names[engine] = append(names[engine], s.Name)
		}
		slices.Sort(names[engine])
	}
	if !slices.Equal(names["path"], names["ring"]) {
		t.Fatalf("series differ:\npath %v\nring %v", names["path"], names["ring"])
	}
	for _, want := range []string{"shadow_hit_rate", "stash_occupancy", "partition", "dram_backlog", "dram_util_c0"} {
		if !slices.Contains(names["ring"], want) {
			t.Fatalf("series %s missing: %v", want, names["ring"])
		}
	}
}

// TestEnginesTraceSameLifecycle: Path and Ring observe a request through
// one function, so a traced run of either records every request's
// lifecycle: the request and serve spans, the issue instant and the
// instant that delivered the data. The ledger counter is keyed by the
// report's own stage names, and the access clock both engines share
// traces every eviction and, under timing protection, every dummy.
func TestEnginesTraceSameLifecycle(t *testing.T) {
	for _, engine := range []string{"path", "ring"} {
		for _, tp := range []bool{false, true} {
			name := engine
			if tp {
				name += "/tp"
			}
			t.Run(name, func(t *testing.T) {
				spec := smallSpec(t)
				spec.Engine = engine
				spec.ORAM.TimingProtection = tp
				pc := core.Dynamic(3)
				spec.Policy = &pc
				spec.Metrics = metrics.New(metrics.Options{Ledger: true, Tracing: true})
				m, err := Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				stages := map[string]bool{}
				for _, s := range m.Obs.Ledger.Stages {
					stages[s.Stage] = true
				}
				seen := map[string]bool{}
				for _, e := range spec.Metrics.Trace.Events() {
					seen[e.Name] = true
					if e.Name != "ledger" {
						continue
					}
					for key := range e.Args {
						if !stages[key] {
							t.Fatalf("ledger counter key %q is not a report stage (%v)", key, stages)
						}
					}
				}
				want := []string{"request", "issue", "serve", "ledger", "evict"}
				if tp {
					want = append(want, "dummy")
				}
				for _, w := range want {
					if !seen[w] {
						t.Fatalf("no %q event in the trace: %v", w, seen)
					}
				}
				if !seen["forward"] && !seen["forward.shadow"] && !seen["stash.hit"] {
					t.Fatalf("no forward, forward.shadow or stash.hit event in the trace: %v", seen)
				}
			})
		}
	}
}

// TestDebugShadowServesReportsMidRun polls /debug/shadow while a run is
// live: every report served decodes as a metrics.Report of the current
// schema naming the engine, and cycles never go backwards. Under -race it
// also checks that serving a report never races the single-writer
// collector.
func TestDebugShadowServesReportsMidRun(t *testing.T) {
	for _, engine := range []string{"path", "ring"} {
		t.Run(engine, func(t *testing.T) {
			spec := smallSpec(t)
			spec.Refs = 6000
			spec.Engine = engine
			pc := core.Dynamic(3)
			spec.Policy = &pc
			spec.Metrics = metrics.New(metrics.Options{Ledger: true})
			srv, err := metrics.ServeDebug("127.0.0.1:0", spec.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var runErr error
			finished := make(chan struct{})
			go func() {
				defer close(finished)
				_, runErr = Run(spec)
			}()
			defer func() { <-finished }() // the run never outlives the test

			url := "http://" + srv.Addr() + "/debug/shadow"
			var served int
			var last int64
			poll := func() {
				resp, err := http.Get(url)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable && served == 0 {
					return // nothing published yet
				}
				var r metrics.Report
				if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d, body is not a report: %v", resp.StatusCode, err)
				}
				if r.Schema != metrics.Schema || r.Engine != engine || r.Cycles < last {
					t.Fatalf("report schema %q engine %q cycles %d (previous %d)", r.Schema, r.Engine, r.Cycles, last)
				}
				served++
				last = r.Cycles
			}
			for running := true; running; {
				select {
				case <-finished:
					running = false
				default:
					poll()
				}
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
			poll()
			if served == 0 {
				t.Fatal("no report served")
			}
			t.Logf("%d reports served, the last at cycle %d", served, last)
		})
	}
}

func TestMetricsReportContents(t *testing.T) {
	spec := smallSpec(t)
	spec.Refs = 2500
	pc := core.Dynamic(3)
	spec.Policy = &pc
	spec.Metrics = metrics.New(metrics.Options{Tracing: true})
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Obs == nil {
		t.Fatal("no observability report")
	}
	if m.ReqLatency.Count != m.ORAM.Requests {
		t.Fatalf("latency samples %d != ORAM requests %d", m.ReqLatency.Count, m.ORAM.Requests)
	}
	if !(m.ReqLatency.P50 <= m.ReqLatency.P90 && m.ReqLatency.P90 <= m.ReqLatency.P99 &&
		m.ReqLatency.P99 <= m.ReqLatency.Max) || m.ReqLatency.P50 == 0 {
		t.Fatalf("implausible percentiles: %+v", m.ReqLatency)
	}
	want := map[string]bool{"shadow_hit_rate": false, "stash_occupancy": false, "partition": false, "dram_backlog": false}
	for _, s := range m.Obs.Series {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
		if len(s.Points) == 0 {
			t.Fatalf("series %s exported with no points", s.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("series %s missing from report", name)
		}
	}
	if m.Obs.Counters["rd_shadows"]+m.Obs.Counters["hd_shadows"] == 0 {
		t.Fatal("policy probe recorded no shadow creation")
	}
	if m.Obs.Cycles != m.Cycles {
		t.Fatalf("report cycles %d != run cycles %d", m.Obs.Cycles, m.Cycles)
	}
	if spec.Metrics.Trace.Len() == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
}

func TestEnergyMonotoneInTraffic(t *testing.T) {
	var low, high dram.Stats
	low.Reads, low.Activates = 100, 10
	high.Reads, high.Activates = 10000, 1000
	if Energy(low, 1000) >= Energy(high, 1000) {
		t.Fatal("energy not monotone in DRAM traffic")
	}
	if Energy(low, 1000) >= Energy(low, 1_000_000) {
		t.Fatal("energy not monotone in runtime (static power)")
	}
}

// TestRunRejectsOversizedFootprint is the regression test for the address
// aliasing bug: trace addresses used to be folded with addr % space, so a
// workload whose footprint exceeded the ORAM data space silently collapsed
// distinct blocks onto one and inflated hit rates. The run must instead be
// rejected with a configuration error naming the minimum tree size.
func TestRunRejectsOversizedFootprint(t *testing.T) {
	spec := smallSpec(t)
	// sjeng/16 touches 16384 blocks: exactly 2^(12+2), so L=12 fits...
	if spec.Profile.FootprintBlocks != spec.ORAM.NumDataBlocks() {
		t.Fatalf("test premise broken: footprint %d != data space %d",
			spec.Profile.FootprintBlocks, spec.ORAM.NumDataBlocks())
	}
	if _, err := Run(spec); err != nil {
		t.Fatalf("exact-fit footprint must run: %v", err)
	}
	// ...and one level less must refuse rather than alias.
	spec.ORAM.L = 11
	_, err := Run(spec)
	if err == nil {
		t.Fatal("footprint larger than the data space must be rejected")
	}
	if !strings.Contains(err.Error(), "footprint") || !strings.Contains(err.Error(), "L >= 12") {
		t.Fatalf("error %q should name the footprint and the minimum L", err)
	}
}

// TestLedgerConservation pins the cycle-attribution ledger's accounting
// identities on a real run: every request's stage entries telescope
// bit-exactly to its latency (Violations == 0), the stage totals sum to the
// exact issue-to-done cycle total, and both totals reconcile with the
// latency histograms' exact sums. Pipelined multi-core mode exercises every
// attribution site (queue wait, coalescing, writeback overlap and
// drain).
func TestLedgerConservation(t *testing.T) {
	spec := smallSpec(t)
	spec.Refs = 2500
	spec.ORAM.Pipeline = true
	spec.CPU.Cores = 2
	spec.Metrics = metrics.New(metrics.Options{Ledger: true})
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Obs == nil || m.Obs.Ledger == nil {
		t.Fatal("ledger enabled but no ledger report")
	}
	led := m.Obs.Ledger

	if led.Violations != 0 {
		t.Fatalf("%d requests failed the bit-exact per-request conservation check", led.Violations)
	}
	if led.Requests == 0 || led.Requests != m.ReqLatency.Count {
		t.Fatalf("ledger recorded %d requests, latency histogram %d", led.Requests, m.ReqLatency.Count)
	}
	if led.Requests != m.ORAM.Requests {
		t.Fatalf("ledger requests %d != controller requests %d", led.Requests, m.ORAM.Requests)
	}

	// Stage totals must sum to the exact issue-to-done total: no cycle
	// charged twice, none dropped.
	var stageSum int64
	for _, s := range led.Stages {
		if s.Stage == "coalesce" {
			continue // coalesced waits are issue-to-forward, not part of the primary sum
		}
		stageSum += s.Cycles
	}
	if stageSum != led.CompleteCycles {
		t.Fatalf("stage totals %d != complete cycles %d", stageSum, led.CompleteCycles)
	}

	// And the ledger's exact sums must agree with the histograms' exact
	// sums: the two observation paths see the same timing.
	if got := histSum(spec.Metrics.ReqComplete); led.CompleteCycles != got {
		t.Fatalf("ledger complete cycles %d != histogram sum %d", led.CompleteCycles, got)
	}
	if got := histSum(spec.Metrics.ReqForward) + led.Stage("coalesce").Cycles; led.ForwardCycles != got {
		t.Fatalf("ledger forward cycles %d != histogram sum + coalesce %d", led.ForwardCycles, got)
	}

	// Pipelined mode must attribute the background writeback drain.
	found := false
	for _, r := range led.Resources {
		if r.Resource == "writeback_drain" && r.Cycles > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("pipelined run attributed no writeback drain: %+v", led.Resources)
	}
	// The DRAM breakdown covers every channel and accounts real bus work.
	if len(led.DRAM) != spec.ORAM.DRAM.Channels {
		t.Fatalf("DRAM breakdown has %d channels, config %d", len(led.DRAM), spec.ORAM.DRAM.Channels)
	}
	var busBusy int64
	for _, ch := range led.DRAM {
		busBusy += ch.BusBusy
		if len(ch.Banks) != spec.ORAM.DRAM.BanksPerChannel {
			t.Fatalf("channel %d reports %d banks, config %d", ch.Channel, len(ch.Banks), spec.ORAM.DRAM.BanksPerChannel)
		}
	}
	if busBusy == 0 {
		t.Fatal("DRAM breakdown attributed no bus cycles")
	}
}

// TestLedgerConservationDecoupled re-runs the conservation identities with
// the decoupled writeback scheduler on: deferring per-bucket writes moves
// DRAM cycles into new shared-resource rows (writeback_slotted for the
// drained spans, writeback_deferred for queue wait), but the per-request
// stage legs must still telescope bit-exactly and the stage totals must
// still sum to the issue-to-done total. Deferral is attribution-neutral, on
// Path and on Ring, whose evictions and reshuffles park through the same
// memory port.
func TestLedgerConservationDecoupled(t *testing.T) {
	dyn := core.Dynamic(3)
	for _, tc := range []struct {
		name, engine string
		channels     int
		policy       *core.Config
	}{
		{"tiny-pipe-wbd-core2", "", 0, nil},
		{"ring:dynamic-3-pipe-c4-wbd-core2", "ring", 4, &dyn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec(t)
			spec.Refs = 2500
			spec.Engine, spec.Policy = tc.engine, tc.policy
			spec.ORAM.Pipeline = true
			spec.ORAM.WBDecoupled = true
			spec.ORAM.Channels = tc.channels
			spec.CPU.Cores = 2
			spec.Metrics = metrics.New(metrics.Options{Ledger: true})
			m, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			led := m.Obs.Ledger
			if led == nil {
				t.Fatal("ledger enabled but no ledger report")
			}
			if led.Violations != 0 {
				t.Fatalf("%d requests failed the bit-exact per-request conservation check", led.Violations)
			}
			var stageSum int64
			for _, s := range led.Stages {
				if s.Stage == "coalesce" {
					continue
				}
				stageSum += s.Cycles
			}
			if stageSum != led.CompleteCycles {
				t.Fatalf("stage totals %d != complete cycles %d", stageSum, led.CompleteCycles)
			}
			if got := histSum(spec.Metrics.ReqComplete); led.CompleteCycles != got {
				t.Fatalf("ledger complete cycles %d != histogram sum %d", led.CompleteCycles, got)
			}
			// The scheduler must have actually drained writes into idle windows
			// and attributed the deferral, in its own non-conserving resource
			// rows.
			res := map[string]int64{}
			for _, r := range led.Resources {
				res[r.Resource] = r.Cycles
			}
			if res["writeback_slotted"] <= 0 {
				t.Fatalf("no slotted writeback cycles attributed: %+v", led.Resources)
			}
			if res["writeback_deferred"] <= 0 {
				t.Fatalf("no writeback deferral attributed: %+v", led.Resources)
			}
			if m.ORAM.WBEnqueued == 0 || m.ORAM.WBSlotted == 0 {
				t.Fatalf("scheduler idle on a decoupled run: %+v", m.ORAM)
			}
			if m.ORAM.WBEnqueued != m.ORAM.WBSlotted+m.ORAM.WBForced+m.ORAM.WBFlushed {
				t.Fatalf("writeback accounting open at end of run: %+v", m.ORAM)
			}
		})
	}
}

// TestLedgerObservationIsFree asserts the attribution layer's core
// contract: every simulated cycle count is bit-identical whether the ledger
// is enabled, disabled, or the run is fully uninstrumented.
func TestLedgerObservationIsFree(t *testing.T) {
	spec := smallSpec(t)
	spec.Refs = 2500
	spec.ORAM.Pipeline = true
	spec.CPU.Cores = 2

	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]metrics.Options{
		"ledger-off": {Ledger: false},
		"ledger-on":  {Ledger: true},
	}
	for name, opts := range runs {
		spec.Metrics = metrics.New(opts)
		got, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != plain.Cycles || got.DataAccess != plain.DataAccess || got.DRI != plain.DRI ||
			got.ORAM != plain.ORAM || got.CPU != plain.CPU || got.Mem != plain.Mem || got.Queue != plain.Queue {
			t.Fatalf("%s changed the run:\nplain    %+v\nobserved %+v", name, plain, got)
		}
	}
}
