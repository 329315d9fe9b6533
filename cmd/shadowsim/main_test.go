package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shadowblock/internal/cpu"
	"shadowblock/internal/experiments"
	"shadowblock/internal/metrics"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

// TestRemovedFlagsRejected pins that the flag mirrors of the scheme
// suffixes are gone (the scheme string is the only spelling of those
// axes), and so are the knobs nothing set: the ledger is always on and the
// time-series window is the collector's.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-pipeline"}, {"-channels", "2"}, {"-cores", "4"}, {"-wb", "decoupled"},
		{"-no-ledger"}, {"-metrics-window", "100"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want a flag error", args)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr %q, want the flag package's rejection", args, stderr.String())
		}
	}
}

// TestBadSchemeExitsNonZero covers a non-canonical spelling end to end.
func TestBadSchemeExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scheme", "insecure-core2-pipe", "-refs", "100"}, &stdout, &stderr); code == 0 {
		t.Fatal("insecure-core2-pipe ran")
	}
	if !strings.Contains(stderr.String(), "insecure-core2-pipe") {
		t.Errorf("stderr %q does not name the scheme", stderr.String())
	}
}

// TestBadLevelExitsNonZero: an out-of-range -L used to be dropped in
// silence, running the default tree.
func TestBadLevelExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scheme", "insecure", "-L", "-3", "-refs", "100"}, &stdout, &stderr); code == 0 {
		t.Fatal("-L -3 ran")
	}
	if !strings.Contains(stderr.String(), "L=-3") {
		t.Errorf("stderr %q does not name -L", stderr.String())
	}
}

// TestRingTreetopExitsNonZero covers an axis the engine's constructor
// rejects: the run fails up front with an error naming the engine.
func TestRingTreetopExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scheme", "ring:tiny", "-treetop", "2", "-refs", "100"}, &stdout, &stderr); code == 0 {
		t.Fatal("ring:tiny -treetop 2 ran")
	}
	if msg := stderr.String(); !strings.Contains(msg, `"ring"`) || !strings.Contains(msg, "treetop") {
		t.Errorf("stderr %q does not name the engine and the axis", msg)
	}
}

// TestMetricsReportIsLabelledWithTheRun checks the report a run writes is
// named by its scheme string and carries the cycles of the one mapping,
// sim.Run(Scheme.Spec(...)).
func TestMetricsReportIsLabelledWithTheRun(t *testing.T) {
	const scheme = "dynamic-3-pipe-c2"
	out := filepath.Join(t.TempDir(), "m.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "mcf", "-scheme", scheme, "-refs", "2000", "-metrics", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rep metrics.Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != metrics.Schema {
		t.Fatalf("schema = %q, want %q", rep.Schema, metrics.Schema)
	}
	if got := rep.Labels["scheme"]; got != scheme {
		t.Errorf("labels.scheme = %q, want %q", got, scheme)
	}

	s, err := experiments.ParseScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := trace.ByName("mcf")
	want, err := sim.Run(s.Spec(p, cpu.InOrder(), 2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != want.Cycles {
		t.Errorf("report cycles = %d, sim.Run(Scheme.Spec) = %d", rep.Cycles, want.Cycles)
	}
}
