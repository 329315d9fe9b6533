package metrics

// The cycle-attribution ledger: every cycle of a request's end-to-end
// latency is charged to exactly one stage, and the charges must telescope
// bit-exactly back to the latency the request observed. The ledger is the
// causal companion to the latency histograms — the histograms say *how
// long* requests took, the ledger says *which resource the cycles went
// to* — and it is pure observation: every entry is derived from timing
// the engine already decided, so runs are bit-identical with the ledger
// on or off (TestLedgerObservationIsFree).

// Stage identifies one leg of a request's end-to-end latency. The stages
// of one request are disjoint and telescoping: queue wait ends where the
// posmap walk begins, the walk ends where the path read begins, the path
// read ends at the data forward, and the eviction drain covers forward to
// completion. A coalesced request has a single Coalesce leg (it rides an
// in-flight primary miss and never enters the engine).
type Stage uint8

const (
	// StageQueueWait: presentation to the front end until the controller
	// begins serving (datapath busy, slot alignment under timing
	// protection, MSHR occupancy).
	StageQueueWait Stage = iota
	// StageCoalesce: the whole wait of a secondary miss that attached to
	// an in-flight MSHR instead of launching its own access.
	StageCoalesce
	// StagePosmapWalk: fetching the missing position-map blocks
	// (FreeCursive walk), each a full ORAM access.
	StagePosmapWalk
	// StagePathRead: the data access proper, from the walk's end to the
	// intended block's forward (DRAM path read + decrypt).
	StagePathRead
	// StageEvictDrain: forward to completion — the eviction writeback
	// (and, pipelined, the drain) the request triggered.
	StageEvictDrain

	NumStages
)

var stageNames = [NumStages]string{
	"queue_wait", "coalesce", "posmap_walk", "path_read", "evict_drain",
}

// String returns the stage's stable report key.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Resource identifies cycles attributed to a shared resource rather than
// to one request's critical path. Resource entries overlap each other and
// the stage entries (two banks are busy at the same instant), so they do
// not participate in the per-request conservation sum; they explain *why*
// a stage took as long as it did.
type Resource uint8

const (
	// ResWritebackOverlap: draining-writeback cycles that path reads
	// overlapped instead of waiting out (the pipelined engine's win),
	// counted from each read's presentation. What a read still waits for
	// a bank the write-back holds shows in the DRAM ledger's per-bank
	// stall.
	ResWritebackOverlap Resource = iota
	// ResWritebackDrain: eviction-writeback cycles retired in the
	// background after the datapath freed (pipelined engine).
	ResWritebackDrain
	// ResWritebackDeferred: cycles queued per-bucket eviction writes spent
	// parked in the decoupled writeback queue before the scheduler
	// released them to DRAM (read-priority deferral).
	ResWritebackDeferred
	// ResWritebackSlotted: drain cycles of queued eviction writes the
	// decoupled scheduler retired opportunistically into idle bank
	// windows instead of colliding with a path read.
	ResWritebackSlotted

	NumResources
)

var resourceNames = [NumResources]string{
	"writeback_overlap", "writeback_drain", "writeback_deferred",
	"writeback_slotted",
}

// String returns the resource's stable report key.
func (r Resource) String() string {
	if int(r) < len(resourceNames) {
		return resourceNames[r]
	}
	return "unknown"
}

// Ledger accumulates per-stage and per-resource cycle attribution. The
// zero value is ready to use; a nil *Ledger no-ops on every method, so
// attribution costs one branch when disabled.
type Ledger struct {
	stageCycles [NumStages]int64
	stageCount  [NumStages]uint64
	resCycles   [NumResources]int64
	resCount    [NumResources]uint64

	// stageNames overrides the report key of a stage row when non-empty.
	// Engines register their own vocabulary here (SetStageNames): the Path
	// engine keeps the defaults, Ring ORAM reports its single-slot read as
	// "ring_read" rather than "path_read", and so on. Purely cosmetic —
	// the accumulation arrays above are indexed by Stage either way.
	stageNames [NumStages]string

	requests  uint64 // primary requests recorded
	coalesced uint64 // secondary misses recorded
	forward   int64  // sum of issue→forward latencies (both kinds)
	complete  int64  // sum of issue→done latencies (primaries)

	violations uint64 // requests whose entries failed to telescope
}

// SetStageNames overrides the report keys of the given stage rows — the
// per-engine ledger stage registration. Stages absent from names keep
// their default keys; an empty map (or nil receiver) is a no-op. The
// override affects only how rows are labelled in reports and lookups,
// never how cycles are accumulated, so attaching it cannot change a run.
func (l *Ledger) SetStageNames(names map[Stage]string) {
	if l == nil {
		return
	}
	for s, n := range names {
		if int(s) < len(l.stageNames) && n != "" {
			l.stageNames[s] = n
		}
	}
}

// StageName returns the report key of a stage: the engine's registered
// override when one exists, the default otherwise.
func (l *Ledger) StageName(s Stage) string {
	if l != nil && int(s) < len(l.stageNames) && l.stageNames[s] != "" {
		return l.stageNames[s]
	}
	return s.String()
}

// RecordAccess charges one primary request: queueWait + posmap + pathRead
// cycles up to the data forward, evictDrain from forward to completion.
// latency is the request's end-to-end issue→done latency; the invariant
// queueWait+posmap+pathRead+evictDrain == latency is checked bit-exactly
// and a mismatch counts as a violation (it must never happen — the
// conservation tests pin Violations at zero).
func (l *Ledger) RecordAccess(queueWait, posmap, pathRead, evictDrain, latency int64) {
	if l == nil {
		return
	}
	l.stageCycles[StageQueueWait] += queueWait
	l.stageCount[StageQueueWait]++
	l.stageCycles[StagePosmapWalk] += posmap
	if posmap > 0 {
		l.stageCount[StagePosmapWalk]++
	}
	l.stageCycles[StagePathRead] += pathRead
	l.stageCount[StagePathRead]++
	l.stageCycles[StageEvictDrain] += evictDrain
	if evictDrain > 0 {
		l.stageCount[StageEvictDrain]++
	}
	l.requests++
	l.forward += latency - evictDrain
	l.complete += latency
	if queueWait+posmap+pathRead+evictDrain != latency {
		l.violations++
	}
}

// RecordCoalesced charges one secondary miss that attached to an
// in-flight MSHR: its entire issue→forward wait is one Coalesce leg.
func (l *Ledger) RecordCoalesced(wait int64) {
	if l == nil {
		return
	}
	l.stageCycles[StageCoalesce] += wait
	l.stageCount[StageCoalesce]++
	l.coalesced++
	l.forward += wait
}

// AddResource charges cycles to a shared resource.
func (l *Ledger) AddResource(r Resource, cycles int64) {
	if l == nil {
		return
	}
	l.resCycles[r] += cycles
	l.resCount[r]++
}

// StageCycles returns the cycles charged to one stage so far.
func (l *Ledger) StageCycles(s Stage) int64 {
	if l == nil {
		return 0
	}
	return l.stageCycles[s]
}

// StageEntry is one row of the attribution table in the JSON export.
type StageEntry struct {
	Stage  string  `json:"stage"`
	Cycles int64   `json:"cycles"`
	Count  uint64  `json:"count"`
	Mean   float64 `json:"mean"` // cycles per counted execution
}

// ResourceEntry is one shared-resource row in the JSON export.
type ResourceEntry struct {
	Resource string `json:"resource"`
	Cycles   int64  `json:"cycles"`
	Count    uint64 `json:"count"`
}

// DRAMBankReport is one bank's attribution in the JSON export.
type DRAMBankReport struct {
	Busy  int64 `json:"busy"`  // cycles spent on row work + column commands
	Stall int64 `json:"stall"` // cycles accesses waited for the bank
}

// DRAMChannelReport is one channel's attribution in the JSON export. Bank
// entries index by bank; BankBusy/BankStall are their sums.
type DRAMChannelReport struct {
	Channel   int              `json:"channel"`
	BusBusy   int64            `json:"bus_busy"`
	BusStall  int64            `json:"bus_stall"`
	BankBusy  int64            `json:"bank_busy"`
	BankStall int64            `json:"bank_stall"`
	Banks     []DRAMBankReport `json:"banks,omitempty"`
}

// LedgerReport is the ledger's exportable form: the per-stage attribution
// table, the shared-resource table, and — when the memory system supplied
// one — the per-channel/per-bank DRAM breakdown.
type LedgerReport struct {
	Requests  uint64 `json:"requests"`  // primary requests recorded
	Coalesced uint64 `json:"coalesced"` // secondary misses recorded
	// ForwardCycles is the exact sum of issue→forward latencies over every
	// recorded request, primaries and coalesced: the forward histogram's
	// exact sum plus the coalesce stage. CompleteCycles is the exact sum of
	// issue→done latencies over the primaries.
	ForwardCycles  int64 `json:"forward_cycles"`
	CompleteCycles int64 `json:"complete_cycles"`
	// Violations counts the records that failed the bit-exact conservation
	// check; anything above zero is a bug in the caller's arithmetic.
	Violations uint64 `json:"violations"`

	Stages    []StageEntry        `json:"stages"`
	Resources []ResourceEntry     `json:"resources,omitempty"`
	DRAM      []DRAMChannelReport `json:"dram,omitempty"`
}

// Stage returns the named stage's entry (zero-valued when absent).
func (r *LedgerReport) Stage(name string) StageEntry {
	if r == nil {
		return StageEntry{}
	}
	for _, s := range r.Stages {
		if s.Stage == name {
			return s
		}
	}
	return StageEntry{}
}

// Report digests the ledger (nil when nothing was recorded).
func (l *Ledger) Report() *LedgerReport {
	if l == nil || l.requests+l.coalesced == 0 {
		return nil
	}
	r := &LedgerReport{
		Requests:       l.requests,
		Coalesced:      l.coalesced,
		ForwardCycles:  l.forward,
		CompleteCycles: l.complete,
		Violations:     l.violations,
	}
	for s := Stage(0); s < NumStages; s++ {
		e := StageEntry{Stage: l.StageName(s), Cycles: l.stageCycles[s], Count: l.stageCount[s]}
		if e.Count > 0 {
			e.Mean = float64(e.Cycles) / float64(e.Count)
		}
		r.Stages = append(r.Stages, e)
	}
	for res := Resource(0); res < NumResources; res++ {
		if l.resCount[res] == 0 {
			continue
		}
		r.Resources = append(r.Resources, ResourceEntry{
			Resource: res.String(), Cycles: l.resCycles[res], Count: l.resCount[res],
		})
	}
	return r
}
