package experiments

import (
	"cmp"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite testdata/pins.txt and testdata/<experiment>.txt from the current code")

var pinsFile = filepath.Join("testdata", "pins.txt")

// TestSeamGoldens holds every cycle pin of the simulator: each row of
// testdata/pins.txt runs its driver and must reproduce every output it
// pins. The simulator is deterministic, so any drift is a behaviour change;
// a change meant to move cycles regenerates the table with -update-goldens,
// and the failure line (`key old → new (Δ)`) says where the cycles went.
func TestSeamGoldens(t *testing.T) {
	text, err := os.ReadFile(pinsFile)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parsePins(string(text))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")
	if *updateGoldens {
		// Runs after every row's subtest; a row that did not run keeps its line.
		t.Cleanup(func() {
			if err := os.WriteFile(pinsFile, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	check := func(t *testing.T, r pinRow) {
		if r.in["short"] == "skip" && testing.Short() {
			t.Skip("short mode")
		}
		t.Parallel()
		out, err := pinDrivers[r.driver](r.in)
		if err != nil {
			t.Fatalf("%s (%s): %v", r.name, r.inputs, err)
		}
		if *updateGoldens {
			lines[r.line-1] = r.format(out) // one element per row
		} else if msg := r.diff(out); msg != "" {
			t.Error(msg)
		}
	}
	// A row named group/leaf runs as subtest leaf of subtest group, so each
	// group (smoke, small, engine, treetop) is a test of its own.
	var groups []string
	grouped := map[string][]pinRow{}
	for _, r := range rows {
		group, _, ok := strings.Cut(r.name, "/")
		if !ok {
			t.Run(r.name, func(t *testing.T) { check(t, r) })
			continue
		}
		if grouped[group] == nil {
			groups = append(groups, group)
		}
		grouped[group] = append(grouped[group], r)
	}
	for _, g := range groups {
		t.Run(g, func(t *testing.T) {
			t.Parallel()
			for _, r := range grouped[g] {
				_, leaf, _ := strings.Cut(r.name, "/")
				t.Run(leaf, func(t *testing.T) { check(t, r) })
			}
		})
	}
}

// TestPinChecker checks the table's parser and comparer: a moved value, a
// dropped key and an extra key each make one item of the failure line, and
// a malformed row is an error naming its line.
func TestPinChecker(t *testing.T) {
	const row = "r sim scheme=tiny refs=10 -> cycles=100 reads=7"
	rows, err := parsePins("# header\n\n" + row + "\n")
	if err != nil || len(rows) != 1 || rows[0].line != 3 || rows[0].format(rows[0].out) != row {
		t.Fatalf("parsePins = %+v, %v", rows, err)
	}
	for _, tc := range []struct {
		got  map[string]int64
		want string
	}{
		{map[string]int64{"cycles": 100, "reads": 7}, ""},
		{map[string]int64{"cycles": 104, "reads": 7}, "r (scheme=tiny refs=10): cycles 100 → 104 (+4)"},
		{map[string]int64{"cycles": 100, "writes": 3}, "r (scheme=tiny refs=10): reads 7 → not emitted; writes not pinned → 3"},
	} {
		if msg := rows[0].diff(tc.got); msg != tc.want {
			t.Errorf("diff(%v) = %q, want %q", tc.got, msg, tc.want)
		}
	}
	for _, bad := range []string{
		"r sim scheme=tiny cycles=1",
		"r sim scheme=tiny -> cycles=many",
		"r sim scheme=tiny -> cycles=1 cycles=2",
		"r sim refs=ten -> cycles=1",
		"r sim colour=red -> cycles=1",
		"r nosuchdriver -> cycles=1",
	} {
		if _, err := parsePins("# header\n" + bad); err == nil || !strings.Contains(err.Error(), "pins.txt:2: ") {
			t.Errorf("%q: error %v, want one naming line 2", bad, err)
		}
	}
}

// pinRow is one line of testdata/pins.txt (its header gives the format).
type pinRow struct {
	line         int // 1-based
	name, driver string
	inputs       string // as written
	in           map[string]string
	out          map[string]int64
}

// pinInputs are the inputs a row may give, true for the integer ones; a
// missing one keeps Scheme.Spec's value. scale=N runs the profile at 1/N;
// direct=1 keeps every label on-chip, the direct position map
// (OnChipPosMapEntries = NumDataBlocks).
var pinInputs = map[string]bool{"scheme": false, "bench": false, "cpu": false, "short": false,
	"refs": true, "seed": true, "L": true, "stash": true, "treetop": true, "scale": true, "tp": true,
	"direct": true}

func parsePins(text string) ([]pinRow, error) {
	var rows []pinRow
	for i, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		r, err := parsePinRow(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", pinsFile, i+1, err)
		}
		r.line = i + 1
		rows = append(rows, r)
	}
	return rows, nil
}

func parsePinRow(line string) (pinRow, error) {
	lhs, rhs, ok := strings.Cut(line, " -> ")
	f := strings.Fields(lhs)
	if !ok || len(f) < 2 || pinDrivers[f[1]] == nil {
		return pinRow{}, fmt.Errorf("want name driver input=value... -> output=value..., driver sim, engine or queue")
	}
	r := pinRow{name: f[0], driver: f[1], inputs: strings.Join(f[2:], " "),
		in: map[string]string{}, out: map[string]int64{}}
	for _, kv := range f[2:] {
		k, v, _ := strings.Cut(kv, "=")
		numeric, known := pinInputs[k]
		if _, err := strconv.Atoi(v); !known || numeric && err != nil {
			return r, fmt.Errorf("input %q: unknown, or not a number", kv)
		}
		r.in[k] = v
	}
	for _, kv := range strings.Fields(rhs) {
		k, v, _ := strings.Cut(kv, "=")
		n, err := strconv.ParseInt(v, 10, 64)
		if _, dup := r.out[k]; err != nil || dup {
			return r, fmt.Errorf("output %q: want one key=integer per key", kv)
		}
		r.out[k] = n
	}
	return r, nil
}

// format renders the row with out as its outputs, keys sorted.
func (r pinRow) format(out map[string]int64) string {
	s := r.name + " " + r.driver + " " + r.inputs + " ->"
	for _, k := range sortedKeys(out) {
		s += fmt.Sprintf(" %s=%d", k, out[k])
	}
	return s
}

// diff is "" when got reproduces every pinned output, else one line naming
// each moved value as `key old → new (Δ)` and each key only one side has.
func (r pinRow) diff(got map[string]int64) string {
	var moved []string
	all := maps.Clone(r.out)
	maps.Copy(all, got)
	for _, k := range sortedKeys(all) {
		old, pinned := r.out[k]
		neu, emitted := got[k]
		switch {
		case !emitted:
			moved = append(moved, fmt.Sprintf("%s %d → not emitted", k, old))
		case !pinned:
			moved = append(moved, fmt.Sprintf("%s not pinned → %d", k, neu))
		case old != neu:
			moved = append(moved, fmt.Sprintf("%s %d → %d (%+d)", k, old, neu, neu-old))
		}
	}
	if len(moved) == 0 {
		return ""
	}
	return fmt.Sprintf("%s (%s): %s", r.name, r.inputs, strings.Join(moved, "; "))
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pinDrivers turn a row's inputs into the outputs it pins.
var pinDrivers = map[string]func(map[string]string) (map[string]int64, error){
	"sim":    simPins,
	"engine": enginePins,
	"queue":  queuePins,
}

// pinSpec is the row's cell as Scheme.Spec builds it, with the inputs'
// overrides applied.
func pinSpec(in map[string]string) (sim.Spec, error) {
	num := func(k string) int { n, _ := strconv.Atoi(in[k]); return n } // parsePinRow checked it
	s, err := ParseScheme(in["scheme"])
	if err != nil {
		return sim.Spec{}, err
	}
	s.TP, s.Treetop = num("tp") != 0, num("treetop")
	p, okBench := trace.ByName(in["bench"])
	c, okCPU := map[string]cpu.Config{"": {}, "inorder": cpu.InOrder(), "o3": cpu.O3()}[in["cpu"]]
	if !okBench && in["bench"] != "" || !okCPU {
		return sim.Spec{}, fmt.Errorf("unknown bench %q or cpu %q", in["bench"], in["cpu"])
	}
	if num("scale") > 0 {
		p = p.Scaled(1, num("scale"))
	}
	spec := s.Spec(p, c, num("refs"), uint64(num("seed")))
	spec.ORAM.L = cmp.Or(num("L"), spec.ORAM.L)
	spec.ORAM.StashCapacity = cmp.Or(num("stash"), spec.ORAM.StashCapacity)
	if num("direct") != 0 {
		spec.ORAM.OnChipPosMapEntries = spec.ORAM.NumDataBlocks()
	}
	return spec, nil
}

// simPins runs the cell through sim.Run with the cycle-attribution ledger
// attached (observation only) and pins its counters and every stage.
func simPins(in map[string]string) (map[string]int64, error) {
	spec, err := pinSpec(in)
	if err != nil {
		return nil, err
	}
	spec.Metrics = metrics.New(metrics.Options{Ledger: true})
	m, err := sim.Run(spec)
	if err != nil {
		return nil, err
	}
	out := counterPins(m.Cycles, m.ORAM, m.Mem)
	out["data_access"], out["coalesced"] = m.DataAccess, int64(m.Queue.Coalesced)
	out["violations"] = int64(m.Obs.Ledger.Violations)
	for _, st := range m.Obs.Ledger.Stages {
		out[st.Stage] = st.Cycles
	}
	return out, nil
}

func counterPins(cycles int64, st oram.Stats, ms dram.Stats) map[string]int64 {
	return map[string]int64{
		"cycles":      cycles,
		"dram_reads":  int64(ms.Reads),
		"dram_writes": int64(ms.Writes),
		"requests":    int64(st.Requests),
		"stash_hits":  int64(st.StashHits),
		"shadow_hits": int64(st.ShadowStashHits),
		"onchip_hits": int64(st.OnChipHits),
	}
}

// pinEngine builds the row's engine alone, as sim.Run would, the
// generator of its request schedule, seeded with the row's seed, and the
// size of its data address space.
func pinEngine(in map[string]string) (oram.Engine, *rng.Xoshiro, uint64, error) {
	spec, err := pinSpec(in)
	if err != nil {
		return nil, nil, 0, err
	}
	var pol oram.DupPolicy // typed nil must stay interface nil
	if spec.Policy != nil {
		if pol, err = core.NewUnbound(*spec.Policy); err != nil {
			return nil, nil, 0, err
		}
	}
	eng, err := oram.NewEngine(cmp.Or(spec.Engine, oram.PathEngine), spec.ORAM, pol)
	return eng, rng.NewXoshiro(spec.Seed), uint64(spec.ORAM.NumDataBlocks()), err
}

// enginePins presents 500 requests straight to the engine at data-dependent
// arrival times, 30 % of them writes; cycles is Drain's.
func enginePins(in map[string]string) (map[string]int64, error) {
	eng, r, space, err := pinEngine(in)
	if err != nil {
		return nil, err
	}
	var now, sumFwd, sumDone int64
	for i := 0; i < 500; i++ {
		o := eng.Request(now, uint32(r.Uint64n(space)), r.Float64() < 0.3)
		sumFwd += o.Forward
		sumDone += o.Done
		now = o.Forward + int64(r.Uint64n(400))
	}
	out := counterPins(eng.Drain(), eng.Stats(), eng.MemStats())
	out["sum_forward"], out["sum_done"] = sumFwd, sumDone
	return out, nil
}

// queuePins issues 1 500 requests through a one-core Queue with random
// gaps, every third a write. The write-back walker runs every 50 requests
// and after Drain; a violation is a driver error, not a pin.
func queuePins(in map[string]string) (map[string]int64, error) {
	eng, r, space, err := pinEngine(in)
	if err != nil {
		return nil, err
	}
	walker := eng.(interface{ CheckWritebackInvariants() error }) // every engine embeds the port
	q := oram.NewQueue(eng, 1)
	var now int64
	for i := 0; i < 1500; i++ {
		fwd, _ := q.Issue(now, 0, uint32(r.Uint64n(space)), i%3 == 0)
		now = fwd + int64(r.Uint64n(300))
		if i%50 == 0 {
			if err := walker.CheckWritebackInvariants(); err != nil {
				return nil, fmt.Errorf("after request %d: %w", i, err)
			}
		}
	}
	out := counterPins(eng.Drain(), eng.Stats(), eng.MemStats())
	return out, walker.CheckWritebackInvariants()
}

// TestRingDynamicPartitionMoves: without timing protection the shared
// request clock feeds the policy the virtual-dummy DRI signal on long gaps,
// for Ring exactly as for Path, so on a compute-bound profile ring:dynamic-3
// partitions below the leaf level and is no longer ring:hd under another
// name (before Ring stood on the shared clock it never sent the signal: both
// schemes ran the same cycles with the partition pinned at L+1).
func TestRingDynamicPartitionMoves(t *testing.T) {
	p, ok := trace.ByName("namd")
	if !ok {
		t.Fatal("namd profile missing")
	}
	r := Runner{Refs: 8000, Seed: 7, Workloads: []trace.Profile{p}}
	run := func(name string) sim.Metrics {
		s, err := ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Run(p, cpu.InOrder(), s)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	dyn, hd := run("ring:dynamic-3"), run("ring:hd")
	if dyn.Cycles == hd.Cycles {
		t.Errorf("ring:dynamic-3 and ring:hd both ran %d cycles: the DRI signal never reached the policy", dyn.Cycles)
	}
	if leaf := float64(oram.Default().L + 1); dyn.MeanPartition <= 0 || dyn.MeanPartition >= leaf {
		t.Errorf("ring:dynamic-3 mean partition %.2f, want it moving below L+1 = %.0f", dyn.MeanPartition, leaf)
	}
}
