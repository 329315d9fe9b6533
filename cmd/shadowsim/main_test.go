package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	const scheme = "dynamic-3-c2-wbd"
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

// TestRingReshufflesVisible runs ring:dynamic-3 with and without the
// observability outputs: stdout's reshuffle count (Stats.Reshuffles), the
// report's reshuffles counter and the trace's reshuffle spans agree, and
// attaching the collector moves no cycle. A Path run prints no reshuffles.
func TestRingReshufflesVisible(t *testing.T) {
	dir := t.TempDir()
	mOut, tOut := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	args := []string{"-bench", "mcf", "-scheme", "ring:dynamic-3", "-refs", "2000"}
	runOut := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	line := func(out, prefix string) string {
		t.Helper()
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, prefix) {
				return strings.Fields(strings.TrimPrefix(l, prefix))[0]
			}
		}
		t.Fatalf("no %q line in:\n%s", prefix, out)
		return ""
	}
	plain := runOut(args...)
	observed := runOut(append(args, "-metrics", mOut, "-trace", tOut, "-trace-cap", "1000000")...)
	if p, o := line(plain, "total cycles"), line(observed, "total cycles"); p != o {
		t.Errorf("total cycles %s detached, %s attached", p, o)
	}
	want := line(plain, "reshuffles")
	if got := line(observed, "reshuffles"); got != want || want == "0" {
		t.Fatalf("reshuffles %s detached, %s attached", want, got)
	}
	if !strings.Contains(observed, " 0 dropped by the ring)") {
		t.Fatalf("the trace dropped events, so its spans cannot be counted:\n%s", observed)
	}

	var rep metrics.Report
	decode(t, mOut, &rep)
	if got := fmt.Sprint(rep.Counters["reshuffles"]); got != want {
		t.Errorf("report counter reshuffles = %s, stdout %s", got, want)
	}
	var tr struct {
		TraceEvents []metrics.TraceEvent `json:"traceEvents"`
	}
	decode(t, tOut, &tr)
	spans := 0
	for _, e := range tr.TraceEvents {
		if e.Name == "reshuffle" && e.Ph == "X" {
			spans++
		}
	}
	if got := fmt.Sprint(spans); got != want {
		t.Errorf("%s reshuffle spans in the trace, stdout %s", got, want)
	}
	if strings.Contains(runOut("-bench", "mcf", "-scheme", "dynamic-3", "-refs", "2000"), "reshuffles") {
		t.Error("a Path run prints a reshuffle count")
	}
}

// TestWBDOverlapsReadsWithoutPipe: the decoupled scheduler overlaps path
// reads with the writes it slots, so a -wbd run prints its overlap line.
// The pipelined engine is gone: -pipe survives only as a no-op spelling
// under -wbd, whose stdout is byte for byte the -wbd run's once the scheme
// string itself is set aside, and alone it exits 1 with an error pointing
// at -wbd. A serial run overlaps nothing and prints no overlap line.
func TestWBDOverlapsReadsWithoutPipe(t *testing.T) {
	stdout := func(scheme string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-bench", "mcf", "-scheme", scheme, "-refs", "2000"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", scheme, code, stderr.String())
		}
		return strings.Replace(stdout.String(), "scheme          "+scheme+" ", "scheme          SCHEME ", 1)
	}
	line := func(out, prefix string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		return ""
	}
	wbd := stdout("dynamic-3-wbd")
	if line(wbd, "overlap") == "" {
		t.Fatal("dynamic-3-wbd printed no overlap line")
	}
	if pipeWBD := stdout("dynamic-3-pipe-wbd"); pipeWBD != wbd {
		t.Errorf("-pipe moved a -wbd run:\n%s\nagainst\n%s", pipeWBD, wbd)
	}
	if p := line(stdout("dynamic-3"), "overlap"); p != "" {
		t.Errorf("a serial run printed %q", p)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-bench", "mcf", "-scheme", "dynamic-3-pipe", "-refs", "2000"}, &out, &errOut); code != 1 {
		t.Errorf("-scheme dynamic-3-pipe: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-wbd") {
		t.Errorf("-scheme dynamic-3-pipe: stderr %q does not name -wbd", errOut.String())
	}
}

// decode reads the JSON file at path into v.
func decode(t *testing.T, path string, v any) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(v); err != nil {
		t.Fatal(err)
	}
}
