// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Registry lists them by name; each runs the workload ×
// scheme matrix its figure plots through the one sweep driver and returns
// a Table (or, for a layout a Table cannot hold, its own Result type)
// whose Render is the text paperbench prints. DESIGN.md §4 is the index.
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
	// Deprecated: never set; kept for the benchmark module (ROADMAP item 19).
	Pipeline bool
	Channels int // multi-channel memory system; 0 = legacy layout
	Cores    int // issuing cores sharing the front end; 0 = the CPU config's default

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
	return Scheme{Name: name, TP: tp, Policy: &cfg}
}

// ParseScheme maps the one accepted name of a memory-system configuration
// to its Scheme. The grammar, the whole of it:
//
//	scheme = [ engine ":" ] base [ "-c" N ] [ "-wbd" ] [ "-core" N ]
//	base   = "insecure" | "tiny" | "rd" | "hd" | "static-" P | "dynamic-" P
//	engine = a registered oram engine name ("path", "ring", ...)
//	N      = decimal, >= 1, no sign, no leading zero
//	P      = decimal, no sign, no leading zero
//
// -cN selects the N-channel interleaved memory system, -wbd the decoupled
// writeback scheduler (else the write-back is serial, the paper's model),
// -coreN the number of cores issuing into the shared front end. Each
// suffix appears at most once and only in this order, so a name parses one
// way, but for the deleted pipelined engine's "-pipe": right after base it
// is a no-op second spelling under -wbd, and an error without. Without a
// prefix the "path" engine — the Tiny ORAM controller — is implied, and an
// unknown engine is an error. Every engine takes every suffix: the memory-system
// axes are the memory port's (oram.Port) and cores are the front end's.
// The insecure baseline bypasses ORAM: it takes -coreN (cores are a
// processor property) and nothing else.
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
	case pipe && !wbd:
		return Scheme{}, fmt.Errorf("experiments: scheme %q: the pipelined engine is gone; -wbd overlaps reads with write-backs", name)
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
	s.Channels, s.WBDecoupled, s.Cores = channels, wbd, cores

	if s.Insecure {
		if prefixed || channels > 0 || wbd {
			return Scheme{}, fmt.Errorf("experiments: scheme %q: the insecure baseline bypasses ORAM and takes no engine prefix, -cN or -wbd", name)
		}
		return s, nil
	}
	if !prefixed {
		engine = oram.PathEngine
	}
	if _, known := oram.LookupEngine(engine); !known {
		return Scheme{}, fmt.Errorf("experiments: scheme %q: unknown engine %q (known engines: %s)",
			name, engine, strings.Join(oram.Engines(), ", "))
	}
	return s, nil
}

func badScheme(name string) error {
	return fmt.Errorf("experiments: scheme %q: want [engine:]base[-cN][-wbd][-coreN], base one of insecure, tiny, rd, hd, static-N, dynamic-N", name)
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

// parallelism is the sweep worker-count override set by SetParallelism;
// <= 0 means "use GOMAXPROCS(0)".
var parallelism int

// SetParallelism caps the number of worker goroutines the sweep driver
// uses (paperbench's -par flag). n <= 0 restores the default, GOMAXPROCS(0).
func SetParallelism(n int) {
	parallelism = n
}

// sweepWorkers returns the worker count for a sweep of n units: the
// SetParallelism override when set, else GOMAXPROCS(0) — not NumCPU, so
// -cpu-restricted test runs and quota-limited CI containers don't
// oversubscribe — and never more workers than units.
func sweepWorkers(n int) int {
	w := parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// matrix evaluates every workload × scheme cell and returns the metrics
// indexed [workload][scheme]. It is the one sweep driver: every sim.Run
// cell of every experiment goes through it, its spec made by Scheme.Spec
// and then, when patch is non-nil, adjusted by patch(workload, scheme,
// spec) — a figure that varies L, DisableShadowHits or the collector says
// so there. Cells are fed to the workers longest-first (by estimated cost,
// original order on ties): a sweep's tail is bounded by its slowest single
// cell, so the expensive full-geometry multi-core cells must start first
// rather than serialise behind the barrier after the cheap ones finish.
func (r Runner) matrix(cpuCfg cpu.Config, schemes []Scheme, patch func(w, s int, spec *sim.Spec)) ([][]sim.Metrics, error) {
	ns := len(schemes)
	specs := make([]sim.Spec, 0, len(r.Workloads)*ns)
	for w, p := range r.Workloads {
		for s, sc := range schemes {
			spec := sc.Spec(p, cpuCfg, r.Refs, r.Seed)
			if patch != nil {
				patch(w, s, &spec)
			}
			specs = append(specs, spec)
		}
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return cost(specs[order[i]]) > cost(specs[order[j]]) })
	flat := make([]sim.Metrics, len(specs))
	// Each cell writes only its own element; parMap stops feeding cells
	// after the first error.
	err := parMap(len(order), func(i int) error {
		var err error
		flat[order[i]], err = sim.Run(specs[order[i]])
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([][]sim.Metrics, len(r.Workloads))
	for w := range out {
		out[w] = flat[w*ns : (w+1)*ns]
	}
	return out, nil
}

// cost estimates a cell's relative simulation cost per workload reference
// — only the ordering matters, it never affects results. ORAM cells
// dominate insecure ones by an order of magnitude (every LLC miss becomes
// a multi-level posmap walk plus a path read), timing protection adds a
// dummy stream, and each extra issuing core multiplies the reference count.
func cost(spec sim.Spec) int {
	w := spec.CPU.Cores
	if !spec.Insecure {
		w *= 10
		if spec.ORAM.TimingProtection {
			w += w / 2
		}
	}
	return w
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
