package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRemovedFlagsRejected pins that the observation cell and the flag
// mirrors of the scheme suffixes are gone (shadowsim runs that cell).
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-metrics", "x"}, {"-trace", "x"}, {"-obs-bench", "mcf"}, {"-obs-scheme", "tiny"},
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

// TestUnknownOnlyIsAnError: a mistyped experiment name used to match
// nothing, print nothing and exit 0.
func TestUnknownOnlyIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "bogus", "-out", ""}, &stdout, &stderr); code == 0 {
		t.Fatal("-only bogus exited 0")
	}
	for _, want := range []string{"bogus", "fig9", "tableI", "occupancy"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not mention %q", stderr.String(), want)
		}
	}
}

// TestOnlySelectsOneExperiment runs the one experiment that needs no
// simulation, case-insensitively, without touching the results directory.
func TestOnlySelectsOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "tablei", "-out", ""}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if got := stdout.String(); !strings.HasPrefix(got, "== tableI") || strings.Count(got, "== ") != 1 {
		t.Errorf("stdout = %q, want exactly the tableI section", got)
	}
}
