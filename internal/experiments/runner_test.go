package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"shadowblock/internal/cpu"
	"shadowblock/internal/metrics"
	"shadowblock/internal/trace"
)

func TestParseSchemePipeSuffix(t *testing.T) {
	for _, name := range []string{"tiny-pipe", "rd-pipe", "hd-pipe", "static-7-pipe", "dynamic-3-pipe"} {
		s, err := ParseScheme(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !s.Pipeline || s.Name != name {
			t.Fatalf("%s parsed to %+v", name, s)
		}
	}
	base, err := ParseScheme("dynamic-3")
	if err != nil {
		t.Fatal(err)
	}
	if base.Pipeline {
		t.Fatal("plain scheme name must not select the pipelined engine")
	}
	for _, bad := range []string{"insecure-pipe", "bogus-pipe", "-pipe"} {
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
	if _, err := r.RunMatrix(cpu.InOrder(), []Scheme{schemeTiny(false)}); err == nil {
		t.Fatal("RunMatrix swallowed the failing cell")
	}
}

// TestRunMatrixMatchesSerial pins the parallel sweep to the serial baseline:
// every cell must be bit-identical to running the same spec alone, i.e. no
// shared mutable state leaks between concurrent cells.
func TestRunMatrixMatchesSerial(t *testing.T) {
	r := testRunner()
	r.Refs = 3000
	parsed := []Scheme{mustScheme(t, "tiny"), mustScheme(t, "dynamic-3-pipe")}
	par, err := r.RunMatrix(cpu.InOrder(), parsed)
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
				t.Fatalf("cell %s/%s differs between RunMatrix and serial Run", p.Name, sc.Name)
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

// TestPipelineSchemeFaster checks the tentpole end to end at the sim layer:
// on a memory-intensive workload the pipelined engine must lower both total
// cycles and the mean issue-to-completion request latency, and must actually
// have overlapped writebacks with reads.
func TestPipelineSchemeFaster(t *testing.T) {
	r := testRunner()
	r.Refs = 12000
	p, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("missing mcf profile")
	}
	serialCol := metrics.New(metrics.Options{})
	pipeCol := metrics.New(metrics.Options{})
	serial, err := r.Observe(p, cpu.InOrder(), mustScheme(t, "dynamic-3"), serialCol)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := r.Observe(p, cpu.InOrder(), mustScheme(t, "dynamic-3-pipe"), pipeCol)
	if err != nil {
		t.Fatal(err)
	}

	if pipe.ORAM.PipelinedReads == 0 || pipe.ORAM.OverlapCycles == 0 {
		t.Fatalf("pipelined run reports no overlap: %+v", pipe.ORAM)
	}
	if serial.ORAM.PipelinedReads != 0 {
		t.Fatalf("serial run claims pipelined reads: %d", serial.ORAM.PipelinedReads)
	}
	if pipe.Cycles >= serial.Cycles {
		t.Fatalf("pipelining did not reduce cycles: %d vs %d", pipe.Cycles, serial.Cycles)
	}
	sm, pm := serialCol.ReqComplete.Summary().Mean, pipeCol.ReqComplete.Summary().Mean
	if pm >= sm {
		t.Fatalf("pipelining did not lower mean request-complete latency: %.1f vs %.1f", pm, sm)
	}
	// Eq. 1 must stay additive under overlap.
	if got := pipe.DataAccess + pipe.DRI; got != pipe.Cycles {
		t.Fatalf("eq.1 decomposition broken under overlap: %d + %d != %d", pipe.DataAccess, pipe.DRI, pipe.Cycles)
	}
	// The overlap-depth time-series must have been threaded through.
	found := false
	for _, s := range pipeCol.TS.All() {
		if s.Name == "wb_overlap" {
			found = true
		}
	}
	if !found {
		t.Fatal("wb_overlap time-series missing from the pipelined run")
	}
}

func TestParseSchemeChannelSuffix(t *testing.T) {
	cases := []struct {
		name     string
		channels int
		pipeline bool
	}{
		{"tiny-c2", 2, false},
		{"rd-c4", 4, false},
		{"static-7-c2", 2, false},
		{"dynamic-3-c1", 1, false},
		{"dynamic-3-pipe-c2", 2, true},
	}
	for _, tc := range cases {
		s, err := ParseScheme(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s.Channels != tc.channels || s.Pipeline != tc.pipeline || s.Name != tc.name {
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
	// tiny-c4-pipe: the suffix order is fixed, -pipe comes before -cN.
	for _, bad := range []string{"insecure-c2", "tiny-c0", "tiny-c", "bogus-c2", "tiny-c4-pipe"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Fatalf("%s: expected an error", bad)
		}
	}
}
