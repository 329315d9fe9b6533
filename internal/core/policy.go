// Package core implements the paper's contribution: the shadow-block
// duplication engine (§IV–§V). It plugs into the Tiny ORAM controller
// through the oram.DupPolicy interface and decides, for every free (dummy)
// slot of a path write, which recently evicted block to duplicate:
//
//   - RD-Dup (Rear Data Duplication) duplicates the block that was placed
//     deepest — the one whose data would otherwise arrive last in a future
//     path read — promoting its effective level upward slot by slot
//     (Fig. 4: once duplicated, a block's priority becomes its shadow's
//     level).
//   - HD-Dup (Hot Data Duplication) duplicates the block with the highest
//     Hot Address Cache count, preferring near-root slots that every future
//     path read loads, so hot data keeps landing in the stash.
//
// A partitioning level P splits the tree: levels < P (root side) use
// HD-Dup and levels >= P use RD-Dup; raising P gives HD-Dup more slots
// (§IV-D and Fig. 9's sweep). Dynamic partitioning adjusts P with a
// saturating DRI counter fed by the real/dummy request pattern.
package core

import (
	"fmt"

	"shadowblock/internal/block"
	"shadowblock/internal/cache"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/stash"
	"shadowblock/internal/tree"
)

// Mode selects the duplication scheme.
type Mode int

// Duplication modes: the pure schemes, and their static/dynamic partition
// combinations.
const (
	// ModeRD uses RD-Dup on every level (partition level 0).
	ModeRD Mode = iota
	// ModeHD uses HD-Dup on every level (partition level L+1).
	ModeHD
	// ModeStatic splits at a fixed PartitionLevel.
	ModeStatic
	// ModeDynamic adjusts the partition level with the DRI counter.
	ModeDynamic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeRD:
		return "rd-dup"
	case ModeHD:
		return "hd-dup"
	case ModeStatic:
		return "static"
	case ModeDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// The Hot Address Cache geometry: 128 entries (the paper's 1 KB) in 4
// ways, 32 sets picked by address bits.
const (
	hotEntries = 128
	hotWays    = 4
)

// Config parameterises the policy.
type Config struct {
	Mode           Mode
	PartitionLevel int // ModeStatic: levels < P use HD-Dup, >= P use RD-Dup
	DRICounterBits int // ModeDynamic: saturating counter width (paper: 3)
}

// Static returns a static-partition configuration at level p.
func Static(p int) Config { return Config{Mode: ModeStatic, PartitionLevel: p} }

// Dynamic returns a dynamic-partition configuration with the given counter
// width.
func Dynamic(bits int) Config { return Config{Mode: ModeDynamic, DRICounterBits: bits} }

// RDOnly returns the pure RD-Dup configuration.
func RDOnly() Config { return Config{Mode: ModeRD} }

// HDOnly returns the pure HD-Dup configuration.
func HDOnly() Config { return Config{Mode: ModeHD} }

// Validate reports configuration errors (geometry-dependent checks happen
// at bind time).
func (c Config) Validate() error {
	switch {
	case c.Mode < ModeRD || c.Mode > ModeDynamic:
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	case c.Mode == ModeStatic && c.PartitionLevel < 0:
		return fmt.Errorf("core: negative partition level")
	case c.Mode == ModeDynamic && (c.DRICounterBits < 1 || c.DRICounterBits > 16):
		return fmt.Errorf("core: DRI counter width %d outside [1,16]", c.DRICounterBits)
	}
	return nil
}

// candidate tracks one duplicable block during a path write.
type candidate struct {
	addr     uint32
	label    uint32
	bound    int32  // min(IntersectLevel(label, path leaf), srcLevel-1): Rules 1–2
	srcLevel int32  // the real copy's tree level
	effLevel int32  // shallowest copy so far: RD-Dup priority
	seq      int32  // eviction order (later = higher tie-break priority)
	count    uint64 // Hot Address Cache count: HD-Dup priority
	// Its filing in the write's queue: its heap slot (-1 when not in the
	// heap), the level it waits for in the lists (-1 for none), or, for a
	// count-0 candidate of the HD-queue, zero and its activation level.
	at   int32
	wait int32
	zero bool
}

// Policy implements oram.DupPolicy.
type Policy struct {
	cfg Config
	geo tree.Geometry
	st  *stash.Stash
	hac *cache.HotAddrCache

	partition  int
	counter    uint32
	counterMax uint32
	prevReal   bool
	havePrev   bool

	// Per-path-write state (the paper's RD-queue and HD-queue, cleared
	// after each write). Candidates live in a reused arena, the stash's
	// shadows first, in stash order, then the write's real blocks; the
	// queue holds indices into it. The arena is sized at binding for the
	// most candidates one write can make: every shadow the stash can hold,
	// plus a real block placed in every slot of the path.
	writing bool
	leaf    uint32 // the path currently being written
	level   int    // the level of the write's last SelectDup (L before the first)
	arena   []candidate
	seeded  int   // arena[:seeded] are the stash's shadows
	seq     int32 // the next eviction-order number
	picked  int32 // SelectDup's pick awaiting its shadow note, -1 for none
	q       candQueue

	// Statistics.
	partitionSum     uint64
	partitionSamples uint64

	mc *metrics.Collector
}

var (
	_ oram.DupPolicy      = (*Policy)(nil)
	_ oram.GeometryBinder = (*Policy)(nil)
)

// New builds a shadow-block ORAM: a controller whose path writes fill dummy
// slots through this policy. oram.New binds the policy to the geometry and
// stash it builds (oram.GeometryBinder).
func New(ocfg oram.Config, pcfg Config) (*oram.Controller, *Policy, error) {
	p, err := NewUnbound(pcfg)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := oram.New(ocfg, p)
	if err != nil {
		return nil, nil, err
	}
	return ctrl, p, nil
}

// NewUnbound builds a policy not yet bound to a geometry and stash, for
// handing to an engine constructor: the constructor binds it (via
// oram.GeometryBinder) once its geometry and stash exist. Using an unbound
// policy before binding is a programming error.
func NewUnbound(pcfg Config) (*Policy, error) {
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{
		cfg: pcfg,
		hac: cache.NewHotAddrCache(hotEntries, hotWays),
	}, nil
}

// MustNew is New for statically known-good configurations.
func MustNew(ocfg oram.Config, pcfg Config) (*oram.Controller, *Policy) {
	c, p, err := New(ocfg, pcfg)
	if err != nil {
		panic(err)
	}
	return c, p
}

// BindGeometry implements oram.GeometryBinder: engine constructors call it
// exactly once, with their geometry and stash. Partition levels live in
// [0, L+1]; a static level above L+1 is a configuration error, not
// something to clamp silently — the caller asked for a split the tree
// cannot express.
func (p *Policy) BindGeometry(geo tree.Geometry, st *stash.Stash) error {
	if p.cfg.Mode == ModeStatic && p.cfg.PartitionLevel > geo.L+1 {
		return fmt.Errorf("core: static partition level %d above the tree's top level %d", p.cfg.PartitionLevel, geo.L+1)
	}
	p.geo = geo
	p.st = st
	bound := st.Capacity() + geo.PathLen()
	p.arena = make([]candidate, 0, bound)
	p.q.heap = make([]heapNode, 0, bound)
	p.q.waiting = make([][]int32, geo.Levels())
	p.q.zeroWait = make([]int32, geo.Levels())
	switch p.cfg.Mode {
	case ModeRD:
		p.partition = 0
	case ModeHD:
		p.partition = geo.L + 1
	case ModeStatic:
		p.partition = p.cfg.PartitionLevel
	case ModeDynamic:
		p.partition = (geo.L + 1) / 2
		p.counterMax = 1<<uint(p.cfg.DRICounterBits) - 1
		p.counter = (p.counterMax + 1) / 2
	}
	p.reset()
	return nil
}

// Partition returns the current partitioning level (levels below it use
// HD-Dup).
func (p *Policy) Partition() int { return p.partition }

// SetMetrics attaches an observability collector (nil detaches it): the
// policy counts shadow creation per scheme and partition-step direction.
func (p *Policy) SetMetrics(mc *metrics.Collector) { p.mc = mc }

// MeanPartition returns the request-weighted average partition level (used
// by the dynamic-partitioning experiments).
func (p *Policy) MeanPartition() float64 {
	if p.partitionSamples == 0 {
		return float64(p.partition)
	}
	return float64(p.partitionSum) / float64(p.partitionSamples)
}

// BeginPathWrite implements oram.DupPolicy: it seeds the queue with the
// stash's resident shadow blocks (§V-B: "shadow blocks in the stash,
// which can be evicted, are also inserted into the queues"), in one pass
// over the stash.
func (p *Policy) BeginPathWrite(leaf uint32) {
	p.reset()
	p.writing = true
	// Rule-1 intersections are against this write's path throughout, so
	// each candidate's is computed once, when its label is known.
	p.leaf = leaf
	// Each seed is filed as file would, inline: no selection has happened
	// yet, so it waits for its activation level (its bound: effLevel is
	// srcLevel), and seeds come in sequence order, so a count-0 seed is the
	// latest at its level so far.
	q := &p.q
	p.st.ForEachShadow(func(e stash.Entry) {
		m := e.Meta
		idx := int32(len(p.arena))
		a := min(p.geo.IntersectLevel(m.Label, leaf), int(m.SrcLevel)-1)
		c := candidate{
			addr:     m.Addr,
			label:    m.Label,
			bound:    int32(a),
			srcLevel: int32(m.SrcLevel),
			effLevel: int32(m.SrcLevel),
			seq:      idx,
			count:    p.hac.Count(m.Addr),
			at:       -1,
			wait:     -1,
		}
		if a >= q.floor {
			c.wait = int32(a)
			if q.kind == byCount && c.count == 0 {
				c.zero = true
				q.zeroWait[a] = idx
			} else {
				q.waiting[a] = append(q.waiting[a], idx)
			}
		}
		p.arena = append(p.arena, c)
	})
	p.seeded = len(p.arena)
	p.seq = int32(p.seeded)
}

// reset clears the per-write state. A write whose every slot is HD-Dup's
// runs the HD-queue from the start; any other starts on the RD-queue.
func (p *Policy) reset() {
	p.writing = false
	p.arena = p.arena[:0]
	p.seeded = 0
	p.seq = 0
	p.picked = -1
	p.level = p.geo.L
	if p.partition > p.geo.L {
		p.q.reset(byCount, 0, p.geo.Levels())
	} else {
		p.q.reset(byLevel, p.partition, p.geo.Levels())
	}
}

// realCandidate returns the candidate a real placement of addr updates.
// Every real block is noted at most once per write (it has one real copy),
// so the only candidate it can already have is a stash shadow's: a block
// whose real copy is in the tree, kept in place by Ring's reshuffle. The
// stash's own index says whether that shadow is resident; the rare hit is
// found by a scan of the seeded candidates. Otherwise the placement makes a
// fresh candidate — always on Path, whose reals come out of the stash.
func (p *Policy) realCandidate(addr uint32) int32 {
	if e, ok := p.st.Lookup(addr); ok && e.Meta.Kind == block.Shadow {
		for i := range p.arena[:p.seeded] {
			if p.arena[i].addr == addr {
				return int32(i)
			}
		}
	}
	p.arena = append(p.arena, candidate{addr: addr, at: -1, wait: -1})
	return int32(len(p.arena) - 1)
}

// NoteEvict implements oram.DupPolicy. Real placements create candidates;
// a shadow placement is the pick SelectDup just returned (the DupPolicy
// contract notes each right after its pick, and nothing else places
// shadows), so it updates that candidate's effective level and decays its
// HD priority so other hot blocks get their turn.
func (p *Policy) NoteEvict(m block.Meta, level int) {
	switch m.Kind {
	case block.Real:
		idx := p.realCandidate(m.Addr)
		c := &p.arena[idx]
		c.label = m.Label
		c.bound = int32(min(p.geo.IntersectLevel(m.Label, p.leaf), level-1))
		c.srcLevel = int32(level)
		c.effLevel = int32(level)
		c.count = p.hac.Count(m.Addr)
		c.seq = p.seq
		p.seq++
		p.file(idx)
	case block.Shadow:
		idx := p.picked
		if idx < 0 || p.arena[idx].addr != m.Addr {
			panic(fmt.Sprintf("core: shadow of block %d noted at level %d without being SelectDup's last pick", m.Addr, level))
		}
		p.picked = -1
		c := &p.arena[idx]
		c.effLevel = min(c.effLevel, int32(level))
		decayed := c.count != 0
		c.count >>= 1
		if p.q.kind == byLevel || decayed {
			// An HD pick at count 0 keeps its priority and its place.
			p.file(idx)
		}
	}
}

// SelectDup implements oram.DupPolicy: pick the duplication candidate for
// the free slot at the given level of path-leaf, honouring the partition
// and Rules 1–2. A level above the previous slot's in the same write, or
// a pick whose shadow was never noted, breaks the DupPolicy contract the
// queue relies on and panics.
func (p *Policy) SelectDup(leaf uint32, level int) (block.Meta, bool) {
	if level > p.level {
		panic(fmt.Sprintf("core: SelectDup at level %d after level %d in one path write; slot levels must not increase", level, p.level))
	}
	if p.picked >= 0 {
		panic(fmt.Sprintf("core: SelectDup at level %d before the shadow of its last pick (block %d) was noted", level, p.arena[p.picked].addr))
	}
	p.level = level
	useHD := level < p.partition
	if useHD && p.q.kind == byLevel {
		// The write's first HD-Dup slot: the RD-queue has served its last.
		p.q.reset(byCount, 0, p.geo.Levels())
		for i := range p.arena {
			c := &p.arena[i]
			c.at, c.wait, c.zero = -1, -1, false
			p.file(int32(i))
		}
	}
	p.reach(level)
	if p.picked = p.q.top(); p.picked < 0 {
		return block.Meta{}, false
	}
	c := &p.arena[p.picked]
	m := block.Meta{
		Kind:     block.Shadow,
		Addr:     c.addr,
		Label:    c.label,
		SrcLevel: uint8(c.srcLevel),
	}
	if useHD {
		p.mc.Count("hd_shadows", 1)
	} else {
		p.mc.Count("rd_shadows", 1)
	}
	return m, true
}

// EndPathWrite implements oram.DupPolicy: the queues are cleared after the
// path write completes (§V-B).
func (p *Policy) EndPathWrite() { p.reset() }

// NoteLLCMiss implements oram.DupPolicy: feed the Hot Address Cache.
func (p *Policy) NoteLLCMiss(addr uint32) {
	if p.cfg.Mode != ModeRD {
		p.hac.Touch(addr)
	}
}

// NoteORAMRequest implements oram.DupPolicy: the DRI counter of §IV-D.
// A real request following a real request means a short interval (HD-Dup
// territory, counter down); a dummy following a real means the interval
// overran a slot (RD-Dup territory, counter up). The partition level then
// steps toward the scheme the counter favours. Requests arrive between
// path writes, never inside one, and the queue relies on the partition
// holding still for a whole write: a call inside one panics.
func (p *Policy) NoteORAMRequest(dummy bool) {
	if p.writing {
		panic("core: NoteORAMRequest inside a path write; the partition must not move until EndPathWrite")
	}
	if p.cfg.Mode != ModeDynamic {
		return
	}
	if p.havePrev && p.prevReal {
		if dummy {
			if p.counter < p.counterMax {
				p.counter++
			}
		} else if p.counter > 0 {
			p.counter--
		}
	}
	p.prevReal = !dummy
	p.havePrev = true

	if p.counter < (p.counterMax+1)/2 {
		if p.partition < p.geo.L+1 {
			p.partition++
			p.mc.Count("partition_up", 1)
		}
	} else if p.partition > 0 {
		p.partition--
		p.mc.Count("partition_down", 1)
	}
	p.partitionSum += uint64(p.partition)
	p.partitionSamples++
}

// ShadowPriority implements oram.DupPolicy: the Hot Address Cache count
// ranks shadows for stash retention.
func (p *Policy) ShadowPriority(addr uint32) uint64 {
	return p.hac.Count(addr)
}
