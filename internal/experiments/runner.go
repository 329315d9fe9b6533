// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each FigNN function runs the workload × scheme matrix
// that figure plots and returns the same rows/series; Render produces a
// text table. DESIGN.md §4 is the index.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/sim"
	"shadowblock/internal/trace"
)

// Runner fixes the scale of every experiment.
type Runner struct {
	Refs int // memory references per core per run
	Seed uint64
	// Workloads is the benchmark list (default: the ten SPEC profiles).
	Workloads []trace.Profile
}

// Default returns the publication-scale runner.
func Default() Runner {
	return Runner{Refs: 60000, Seed: 7, Workloads: trace.SPEC2006()}
}

// Quick returns a fast runner for tests and smoke runs. The shapes are
// noisier at this scale but the orderings hold.
func Quick() Runner {
	return Runner{Refs: 12000, Seed: 7, Workloads: trace.SPEC2006()}
}

// Scheme names a memory-system configuration under evaluation.
type Scheme struct {
	Name     string
	Engine   string // registered ORAM engine; "" = "path", the implied default
	Insecure bool
	TP       bool // timing protection at the Table I static rate
	Policy   *core.Config
	Treetop  int
	XOR      bool
	Pipeline bool // pipelined request engine (writeback/read overlap)
	Channels int  // multi-channel memory system; 0 = legacy layout
	Cores    int  // issuing cores sharing the front end; 0 = the CPU config's default

	// WBDecoupled selects the decoupled per-bucket writeback scheduler
	// (the "-wbd" scheme suffix): eviction writes queue per bucket and
	// drain into idle bank windows with read-priority arbitration.
	WBDecoupled bool
}

// The named schemes of the evaluation.
func schemeInsecure() Scheme { return Scheme{Name: "insecure", Insecure: true} }
func schemeTiny(tp bool) Scheme {
	return Scheme{Name: "tiny", TP: tp}
}
func schemePolicy(name string, tp bool, cfg core.Config) Scheme {
	c := cfg
	return Scheme{Name: name, TP: tp, Policy: &c}
}

// ParseScheme maps the one accepted name of a memory-system configuration
// to its Scheme. The grammar, the whole of it:
//
//	scheme = [ engine ":" ] base [ "-pipe" ] [ "-c" N ] [ "-wbd" ] [ "-core" N ]
//	base   = "insecure" | "tiny" | "rd" | "hd" | "static-" P | "dynamic-" P
//	engine = a registered oram engine name ("path", "ring", ...)
//	N      = decimal, >= 1, no sign, no leading zero
//	P      = decimal, no sign, no leading zero
//
// -pipe selects the pipelined request engine, -cN the N-channel
// interleaved memory system, -wbd the decoupled per-bucket writeback
// scheduler, -coreN the number of cores issuing into the shared front end.
// Each suffix appears at most once and only in this order, so every
// configuration has exactly one name. Without a prefix the "path" engine —
// the Tiny ORAM controller — is implied. The insecure baseline bypasses
// ORAM: it takes -coreN (cores are a processor property) and nothing else.
// A suffix outside the engine's capabilities (ring:tiny-pipe) is rejected
// here, by oram.Caps.Check, rather than mid-construction.
func ParseScheme(name string) (Scheme, error) {
	engine, rest, prefixed := strings.Cut(name, ":")
	if !prefixed {
		engine, rest = "", name
	}
	rest, cores := cutCount(rest, "-core")
	rest, wbd := strings.CutSuffix(rest, "-wbd")
	rest, channels := cutCount(rest, "-c")
	rest, pipe := strings.CutSuffix(rest, "-pipe")

	var s Scheme
	kind, level, _ := strings.Cut(rest, "-")
	p, isNum := numeral(level)
	switch {
	case rest == "insecure":
		s = schemeInsecure()
	case rest == "tiny":
		s = schemeTiny(false)
	case rest == "rd":
		s = schemePolicy(name, false, core.RDOnly())
	case rest == "hd":
		s = schemePolicy(name, false, core.HDOnly())
	case kind == "static" && isNum:
		s = schemePolicy(name, false, core.Static(p))
	case kind == "dynamic" && isNum:
		s = schemePolicy(name, false, core.Dynamic(p))
	default:
		return Scheme{}, badScheme(name)
	}
	s.Name, s.Engine = name, engine
	s.Pipeline, s.Channels, s.WBDecoupled, s.Cores = pipe, channels, wbd, cores

	if s.Insecure {
		if prefixed || pipe || channels > 0 || wbd {
			return Scheme{}, fmt.Errorf("experiments: scheme %q: the insecure baseline bypasses ORAM and takes no engine prefix, -pipe, -cN or -wbd", name)
		}
		return s, nil
	}
	if !prefixed {
		engine = oram.PathEngine
	}
	info, known := oram.LookupEngine(engine)
	if !known {
		return Scheme{}, fmt.Errorf("experiments: scheme %q: unknown engine %q (known engines: %s)",
			name, engine, strings.Join(oram.Engines(), ", "))
	}
	spec := s.Spec(trace.Profile{}, cpu.Config{}, 0, 0)
	if err := info.Caps.Check(engine, spec.ORAM, spec.CPU.Cores); err != nil {
		return Scheme{}, fmt.Errorf("experiments: scheme %q: %w", name, err)
	}
	return s, nil
}

func badScheme(name string) error {
	return fmt.Errorf("experiments: scheme %q: want [engine:]base[-pipe][-cN][-wbd][-coreN], base one of insecure, tiny, rd, hd, static-N, dynamic-N", name)
}

// numeral parses a canonical unsigned decimal: digits only, no leading
// zero (so every value has one spelling).
func numeral(s string) (int, bool) {
	if s == "" || (len(s) > 1 && s[0] == '0') {
		return 0, false
	}
	for _, c := range []byte(s) {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// cutCount strips a trailing marker+N (N a numeral >= 1) from s and returns
// N, or s unchanged and 0 when it ends in no such suffix.
func cutCount(s, marker string) (string, int) {
	i := strings.LastIndex(s, marker)
	if i < 0 {
		return s, 0
	}
	n, ok := numeral(s[i+len(marker):])
	if !ok || n < 1 {
		return s, 0
	}
	return s[:i], n
}

// Spec is the one mapping from a Scheme to the simulator's run description:
// the (workload, scheme) cell at the given scale. cpuCfg's core count is
// the default a -coreN suffix overrides.
func (s Scheme) Spec(p trace.Profile, cpuCfg cpu.Config, refs int, seed uint64) sim.Spec {
	if s.Cores > 0 {
		cpuCfg.Cores = s.Cores
	}
	ocfg := oram.Default()
	ocfg.TimingProtection = s.TP
	ocfg.TreetopLevels = s.Treetop
	ocfg.XOR = s.XOR
	ocfg.Pipeline = s.Pipeline
	ocfg.Channels = s.Channels
	ocfg.WBDecoupled = s.WBDecoupled
	return sim.Spec{
		Profile:  p,
		CPU:      cpuCfg,
		Refs:     refs,
		Seed:     seed,
		Insecure: s.Insecure,
		Engine:   s.Engine,
		ORAM:     ocfg,
		Policy:   s.Policy,
	}
}

// Run executes one (workload, scheme) cell.
func (r Runner) Run(p trace.Profile, cpuCfg cpu.Config, s Scheme) (sim.Metrics, error) {
	return sim.Run(s.Spec(p, cpuCfg, r.Refs, r.Seed))
}

// Observe executes one cell with the observability collector attached:
// the returned metrics carry the latency digest and Obs report, and col's
// trace recorder (when tracing) holds the request lifecycles.
func (r Runner) Observe(p trace.Profile, cpuCfg cpu.Config, s Scheme, col *metrics.Collector) (sim.Metrics, error) {
	spec := s.Spec(p, cpuCfg, r.Refs, r.Seed)
	spec.Metrics = col
	m, err := sim.Run(spec)
	if err == nil && m.Obs != nil {
		m.Obs.Labels["scheme"] = s.Name
	}
	return m, err
}

// parallelism is the sweep worker-count override set by SetParallelism;
// 0 means "use GOMAXPROCS(0)".
var parallelism int

// SetParallelism caps the number of worker goroutines RunMatrix and parMap
// use (paperbench's -par flag). n <= 0 restores the default, GOMAXPROCS(0).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism = n
}

// sweepWorkers returns the worker count for a sweep of n units: the
// SetParallelism override when set, else GOMAXPROCS(0) — not NumCPU, so
// -cpu-restricted test runs and quota-limited CI containers don't
// oversubscribe — and never more workers than units.
func sweepWorkers(n int) int {
	w := parallelism
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// cell identifies one unit of work in a parallel sweep.
type cell struct {
	wl     int
	scheme int
}

// costWeight estimates a scheme's relative simulation cost per workload
// reference — only the ordering matters, it never affects results. ORAM
// cells dominate insecure ones by an order of magnitude (every LLC miss
// becomes a multi-level posmap walk plus a path read), timing protection
// adds a dummy stream, and each extra issuing core multiplies the
// reference count.
func (s Scheme) costWeight(defaultCores int) int {
	cores := defaultCores
	if s.Cores > 0 {
		cores = s.Cores
	}
	w := cores
	if !s.Insecure {
		w *= 10
		if s.TP {
			w += w / 2
		}
	}
	return w
}

// RunMatrix evaluates every workload × scheme cell in parallel and returns
// metrics indexed as [workload][scheme]. Cells are fed to the workers
// longest-first (by estimated cost, original order on ties): a sweep's
// tail is bounded by its slowest single cell, so the expensive
// full-geometry multi-core cells must start first rather than serialise
// behind the barrier after the cheap ones finish.
func (r Runner) RunMatrix(cpuCfg cpu.Config, schemes []Scheme) ([][]sim.Metrics, error) {
	out := make([][]sim.Metrics, len(r.Workloads))
	for i := range out {
		out[i] = make([]sim.Metrics, len(schemes))
	}
	var cells []cell
	for w := range r.Workloads {
		for s := range schemes {
			cells = append(cells, cell{w, s})
		}
	}
	sort.SliceStable(cells, func(i, j int) bool {
		return schemes[cells[i].scheme].costWeight(cpuCfg.Cores) >
			schemes[cells[j].scheme].costWeight(cpuCfg.Cores)
	})
	// Each cell writes only its own element; parMap stops feeding cells
	// after the first error and the results of in-flight cells are kept.
	err := parMap(len(cells), func(i int) error {
		c := cells[i]
		m, err := r.Run(r.Workloads[c.wl], cpuCfg, schemes[c.scheme])
		out[c.wl][c.scheme] = m
		return err
	})
	return out, err
}

// parMap runs fn(0..n-1) across the sweep worker pool and returns the
// first error.
func parMap(n int, fn func(i int) error) error {
	var (
		mu      sync.Mutex
		firstEr error
		wg      sync.WaitGroup
	)
	work := make(chan int)
	workers := sweepWorkers(n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	// Fail fast: stop feeding indices once any call has errored.
	for i := 0; i < n; i++ {
		mu.Lock()
		failed := firstEr != nil
		mu.Unlock()
		if failed {
			break
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return firstEr
}

// names extracts the workload names.
func (r Runner) names() []string {
	out := make([]string, len(r.Workloads))
	for i, p := range r.Workloads {
		out[i] = p.Name
	}
	return out
}
