package main

import (
	"bytes"
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
// suffixes are gone: the scheme string is the only spelling of those axes.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-pipeline"}, {"-channels", "2"}, {"-cores", "4"}, {"-wb", "decoupled"},
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
	rep, err := metrics.DecodeReport(f)
	if err != nil {
		t.Fatal(err)
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
