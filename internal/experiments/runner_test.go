package experiments

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"shadowblock/internal/cpu"
	"shadowblock/internal/metrics"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

// TestParseSchemePipeSuffix pins what is left of the deleted pipelined
// engine's suffix: alone it is an error that points at -wbd, and with -wbd
// it is a second spelling that parses to exactly the -wbd scheme.
func TestParseSchemePipeSuffix(t *testing.T) {
	for _, base := range []string{"tiny", "rd", "hd", "static-7", "dynamic-3", "ring:tiny"} {
		for _, tail := range []string{"", "-c4", "-core2"} {
			name := base + "-pipe" + tail
			_, err := ParseScheme(name)
			if err == nil || !strings.Contains(err.Error(), "-wbd") {
				t.Errorf("%s: err = %v, want an error naming -wbd", name, err)
			}
		}
		for _, tail := range []string{"-wbd", "-c4-wbd-core4"} {
			got, want := mustScheme(t, base+"-pipe"+tail), mustScheme(t, base+tail)
			if got.Name != base+"-pipe"+tail {
				t.Errorf("%s parsed to Name %q", got.Name, base+"-pipe"+tail)
			}
			got.Name = want.Name
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s parsed to %+v, want %+v", base+"-pipe"+tail, got, want)
			}
		}
	}
	for _, bad := range []string{"insecure-pipe", "insecure-pipe-wbd", "bogus-pipe-wbd", "-pipe", "-pipe-wbd"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Fatalf("%s: expected an error", bad)
		}
	}
}

// TestParMapFailFast checks that an early error stops the feeder: with the
// very first calls failing, parMap must not grind through anywhere near all
// n indices.
func TestParMapFailFast(t *testing.T) {
	const n = 100000
	var calls atomic.Int64
	sentinel := errors.New("boom")
	err := parMap(n, func(i int) error {
		calls.Add(1)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the first worker error", err)
	}
	if c := calls.Load(); c > n/10 {
		t.Fatalf("parMap kept feeding after the first error: %d of %d calls ran", c, n)
	}
}

// TestRunMatrixPropagatesErrors checks a failing cell surfaces as the sweep
// error instead of a zero-valued result row.
func TestRunMatrixPropagatesErrors(t *testing.T) {
	r := testRunner()
	// A zero-valued profile is rejected by the trace generator.
	r.Workloads = append([]trace.Profile{{Name: "broken"}}, r.Workloads...)
	r.Refs = 500
	if _, err := r.matrix(cpu.InOrder(), []Scheme{schemeTiny(false)}, nil); err == nil {
		t.Fatal("the sweep swallowed the failing cell")
	}
}

// TestRunMatrixMatchesSerial pins the parallel sweep to the serial baseline:
// every cell must be bit-identical to running the same spec alone, i.e. no
// shared mutable state leaks between concurrent cells.
func TestRunMatrixMatchesSerial(t *testing.T) {
	r := testRunner()
	r.Refs = 3000
	parsed := []Scheme{mustScheme(t, "tiny"), mustScheme(t, "dynamic-3-wbd")}
	par, err := r.matrix(cpu.InOrder(), parsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w, p := range r.Workloads {
		for s, sc := range parsed {
			serial, err := r.Run(p, cpu.InOrder(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par[w][s], serial) {
				t.Fatalf("cell %s/%s differs between the sweep and serial Run", p.Name, sc.Name)
			}
		}
	}
}

func mustScheme(t *testing.T, name string) Scheme {
	t.Helper()
	s, err := ParseScheme(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWBDSchemeFaster checks the decoupled write-back scheduler end to end
// at the sim layer: on a memory-intensive workload it must lower both total
// cycles and the mean issue-to-completion request latency against the
// serial engine, and must actually have overlapped write-backs with reads.
func TestWBDSchemeFaster(t *testing.T) {
	r := testRunner()
	r.Refs = 12000
	p, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("missing mcf profile")
	}
	observe := func(scheme string) (sim.Metrics, *metrics.Collector) {
		spec := mustScheme(t, scheme).Spec(p, cpu.InOrder(), r.Refs, r.Seed)
		spec.Metrics = metrics.New(metrics.Options{})
		m, err := sim.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return m, spec.Metrics
	}
	serial, serialCol := observe("dynamic-3")
	wbd, wbdCol := observe("dynamic-3-wbd")

	if wbd.ORAM.OverlappedReads == 0 || wbd.ORAM.OverlapCycles == 0 {
		t.Fatalf("decoupled run reports no overlap: %+v", wbd.ORAM)
	}
	if serial.ORAM.OverlappedReads != 0 || serial.ORAM.OverlapCycles != 0 {
		t.Fatalf("serial run claims overlapped reads: %+v", serial.ORAM)
	}
	if wbd.Cycles >= serial.Cycles {
		t.Fatalf("decoupling did not reduce cycles: %d vs %d", wbd.Cycles, serial.Cycles)
	}
	sm, wm := serialCol.ReqComplete.Summary().Mean, wbdCol.ReqComplete.Summary().Mean
	if wm >= sm {
		t.Fatalf("decoupling did not lower mean request-complete latency: %.1f vs %.1f", wm, sm)
	}
	// Eq. 1 must stay additive under overlap.
	if got := wbd.DataAccess + wbd.DRI; got != wbd.Cycles {
		t.Fatalf("eq.1 decomposition broken under overlap: %d + %d != %d", wbd.DataAccess, wbd.DRI, wbd.Cycles)
	}
	// The overlap-depth time-series must have been threaded through.
	found := false
	for _, s := range wbdCol.TS.All() {
		if s.Name == "wb_overlap" {
			found = true
		}
	}
	if !found {
		t.Fatal("wb_overlap time-series missing from the decoupled run")
	}
}

// TestXORCountsNoShadowForward: under XOR compression the intended block
// exists only once the whole path is read and XOR-ed, so no request
// forwards from a tree shadow, and neither engine may count one. Without
// XOR both engines do forward from shadows on the same trace, so the check
// is not vacuous.
func TestXORCountsNoShadowForward(t *testing.T) {
	p, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("missing mcf profile")
	}
	for _, name := range []string{"dynamic-3", "ring:dynamic-3"} {
		for _, xor := range []bool{false, true} {
			s := mustScheme(t, name)
			s.XOR = xor
			m, err := sim.Run(s.Spec(p, cpu.InOrder(), 4000, 7))
			if err != nil {
				t.Fatal(err)
			}
			if got := m.ORAM.ShadowForwards; xor != (got == 0) {
				t.Errorf("%s xor=%v: %d shadow forwards", name, xor, got)
			}
		}
	}
}

func TestParseSchemeChannelSuffix(t *testing.T) {
	cases := []struct {
		name     string
		channels int
	}{
		{"tiny-c2", 2},
		{"rd-c4", 4},
		{"static-7-c2", 2},
		{"dynamic-3-c1", 1},
		{"dynamic-3-c2-wbd", 2},
	}
	for _, tc := range cases {
		s, err := ParseScheme(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s.Channels != tc.channels || s.Name != tc.name {
			t.Fatalf("%s parsed to %+v", tc.name, s)
		}
	}
	if s := mustScheme(t, "dynamic-3"); s.Channels != 0 {
		t.Fatal("plain scheme name must not select channel mode")
	}
	// static-12 must keep its numeric tail: "-12" is not a channel suffix.
	if s := mustScheme(t, "static-12"); s.Channels != 0 || s.Policy == nil || s.Policy.PartitionLevel != 12 {
		t.Fatalf("static-12 parsed to %+v", s)
	}
	// tiny-c4-wbd-pipe: the suffix order is fixed, -pipe comes before -cN.
	for _, bad := range []string{"insecure-c2", "tiny-c0", "tiny-c", "bogus-c2", "tiny-c4-wbd-pipe"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Fatalf("%s: expected an error", bad)
		}
	}
}
