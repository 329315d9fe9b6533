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
// later) register from their own packages. Every engine embeds the engine
// skeleton (Shared), which answers the seam for it and reaches DRAM through
// its memory port (Port), whose methods are part of the contract; a
// constructor rejects a configuration it cannot honour. The one capability
// beyond the interface is Functional (queue.go), real payloads.

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
	// SetObserver registers the externally-visible-operation callback
	// (path reads/writes) the security tests compare traces through.
	SetObserver(fn func(Event))
	// SetMetrics attaches an observability collector (nil detaches).
	// Observation is pure: attaching one never changes simulated timing.
	SetMetrics(mc *metrics.Collector)

	// The memory port's methods, promoted from the Port of the Shared
	// every engine embeds (port.go, writeback.go).
	MemStats() dram.Stats
	MemLedger() []dram.ChannelLedger
}

// GeometryBinder is implemented by duplication policies that bind to an
// engine's geometry and stash after construction (core.Policy does).
// NewShared calls BindGeometry exactly once, with the geometry and stash
// the engine hands it, before anything calls the policy.
type GeometryBinder interface {
	BindGeometry(geo tree.Geometry, st *stash.Stash) error
}

// EngineInfo describes one registered engine.
type EngineInfo struct {
	Name string
	// New constructs the engine. policy may be nil (no duplication); a
	// policy implementing GeometryBinder is bound through NewShared. A
	// configuration the engine cannot honour is an error naming the engine
	// and the axis, never a panic mid-run.
	New func(cfg Config, policy DupPolicy) (Engine, error)
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

// NewEngine builds the named engine. An unknown name lists the registered
// engines — the error a mistyped scheme string should produce.
func NewEngine(name string, cfg Config, policy DupPolicy) (Engine, error) {
	info, ok := LookupEngine(name)
	if !ok {
		return nil, fmt.Errorf("oram: unknown engine %q (known engines: %s)",
			name, strings.Join(Engines(), ", "))
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
		Name: PathEngine,
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
	_ Engine     = (*Controller)(nil)
	_ Functional = (*Controller)(nil)
)
