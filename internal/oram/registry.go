package oram

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"shadowblock/internal/dram"
	"shadowblock/internal/metrics"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// The public engine seam: a whole ORAM protocol is an Engine, engines
// register themselves by name, and everything above the seam — the MSHR
// front end, the simulator, the scheme vocabulary, the benchmarks —
// composes against the interface and never against a concrete type. The
// Path engine (this package's Controller) is registered here; structurally
// different protocols (Ring ORAM in internal/ring, hierarchical schemes
// later) register from their own packages. Capabilities beyond the
// interface are small optional interfaces their consumers discover
// (Functional and WritebackPumper in queue.go).

// Engine is one ORAM protocol serving LLC requests: the contract the
// front end (Queue), the simulator and the benchmarks program against.
// The concrete controller behind it models serial hardware — methods are
// not safe for concurrent use; the Queue serialises multi-core callers.
type Engine interface {
	// Name returns the engine's registered name ("path", "ring", ...).
	Name() string
	// Request serves one LLC miss presented at cycle now.
	Request(now int64, addr uint32, write bool) Outcome
	// Drain flushes parked work (if the engine defers any) and returns the
	// cycle at which everything issued completes. Idempotent.
	Drain() int64
	// Stats returns the controller-level counters. The vocabulary is shared:
	// counters one protocol has no use for stay zero.
	Stats() Stats
	// MemStats exposes the DRAM model's counters.
	MemStats() dram.Stats
	// NumDataBlocks returns the data address space size.
	NumDataBlocks() int
	// SetObserver registers the externally-visible-operation callback
	// (path reads/writes) the security tests compare traces through.
	SetObserver(fn func(Event))
	// SetMetrics attaches an observability collector (nil detaches).
	// Observation is pure: attaching one never changes simulated timing.
	SetMetrics(mc *metrics.Collector)
}

// GeometryBinder is implemented by duplication policies that bind to an
// engine's geometry and stash after construction (core.Policy does).
// Engine constructors receiving such a policy must call BindGeometry
// exactly once, after their geometry and stash exist.
type GeometryBinder interface {
	BindGeometry(geo tree.Geometry, st *stash.Stash) error
}

// Caps declares which configuration axes an engine composes with. A
// request for an axis the engine lacks is rejected by Check — when the
// scheme string is parsed, when the simulator assembles the run, and when
// NewEngine constructs the engine — a config error up front, never a panic
// mid-run.
type Caps struct {
	Pipeline    bool // pipelined request engine (-pipe)
	Channels    bool // multi-channel interleaved layout (-cN)
	WBDecoupled bool // decoupled per-bucket writeback scheduler (-wbd)
	Cores       bool // multi-core front end through the Queue (-coreN)
	Functional  bool // real payloads (ReadBlock/WriteBlock/backing store)
	Treetop     bool // on-chip treetop caching
}

// Check validates a configuration, and the number of cores that will
// issue into the engine, against its capabilities, naming the engine and
// the offending axis. It is the only place a capability violation is
// phrased.
func (caps Caps) Check(engine string, cfg Config, cores int) error {
	switch {
	case cfg.Pipeline && !caps.Pipeline:
		return fmt.Errorf("oram: engine %q does not compose with the pipelined request engine (-pipe)", engine)
	case cfg.Channels > 0 && !caps.Channels:
		return fmt.Errorf("oram: engine %q does not compose with the multi-channel layout (-cN)", engine)
	case cfg.WBDecoupled && !caps.WBDecoupled:
		return fmt.Errorf("oram: engine %q does not compose with the decoupled writeback scheduler (-wbd)", engine)
	case cores > 1 && !caps.Cores:
		return fmt.Errorf("oram: engine %q does not compose with the multi-core front end (-coreN)", engine)
	case cfg.Functional && !caps.Functional:
		return fmt.Errorf("oram: engine %q does not support functional mode", engine)
	case cfg.TreetopLevels > 0 && !caps.Treetop:
		return fmt.Errorf("oram: engine %q does not support treetop caching", engine)
	}
	return nil
}

// EngineInfo describes one registered engine.
type EngineInfo struct {
	Name        string
	Description string
	Caps        Caps
	// New constructs the engine. policy may be nil (no duplication); a
	// policy implementing GeometryBinder is bound by the constructor.
	New func(cfg Config, policy DupPolicy) (Engine, error)
	// LedgerStages renames attribution rows for this engine's reports
	// (nil keeps the defaults). Applied by the engine's SetMetrics.
	LedgerStages map[metrics.Stage]string
}

var (
	registryMu sync.RWMutex
	registry   = map[string]EngineInfo{}
)

// RegisterEngine adds an engine to the registry. Registering a nil
// constructor, an empty name, or a name already taken panics: engines
// register from package init, where a bad registration is a programming
// error that must surface immediately.
func RegisterEngine(info EngineInfo) {
	if info.Name == "" || info.New == nil {
		panic("oram: RegisterEngine needs a name and a constructor")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("oram: engine %q registered twice", info.Name))
	}
	registry[info.Name] = info
}

// LookupEngine returns the named engine's registration.
func LookupEngine(name string) (EngineInfo, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	info, ok := registry[name]
	return info, ok
}

// Engines returns the registered engine names, sorted.
func Engines() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewEngine builds the named engine after checking the configuration
// against its capability flags (for one requestor: whoever puts a
// multi-core Queue in front passes its core count to Caps.Check itself,
// as sim.Run does). An unknown name lists the registered engines — the
// error a mistyped scheme string should produce.
func NewEngine(name string, cfg Config, policy DupPolicy) (Engine, error) {
	info, ok := LookupEngine(name)
	if !ok {
		return nil, fmt.Errorf("oram: unknown engine %q (known engines: %s)",
			name, strings.Join(Engines(), ", "))
	}
	if err := info.Caps.Check(name, cfg, 1); err != nil {
		return nil, err
	}
	return info.New(cfg, policy)
}

// PathEngine is the registered name of this package's Tiny/Path ORAM
// controller, the implied default everywhere an engine goes unnamed.
const PathEngine = "path"

// Name identifies the Path engine on the seam.
func (c *Controller) Name() string { return PathEngine }

func init() {
	RegisterEngine(EngineInfo{
		Name:        PathEngine,
		Description: "Tiny ORAM (Path ORAM derivative) staged engine, the paper's baseline",
		Caps: Caps{
			Pipeline: true, Channels: true, WBDecoupled: true,
			Cores: true, Functional: true, Treetop: true,
		},
		New: func(cfg Config, policy DupPolicy) (Engine, error) {
			c, err := New(cfg, policy)
			if err != nil {
				return nil, err // not a typed-nil *Controller in the interface
			}
			return c, nil
		},
	})
}

var (
	_ Engine          = (*Controller)(nil)
	_ Functional      = (*Controller)(nil)
	_ WritebackPumper = (*Controller)(nil)
)
