// Package trace models program memory behaviour. The paper evaluates on
// SPEC CPU2006 traces played through gem5; those traces are proprietary, so
// this package provides synthetic generators parameterised by the features
// the evaluation actually depends on: memory intensity (compute gap between
// references), working-set size, hot-set reuse (Zipf), streaming fraction,
// pointer-chase dependence, and phase behaviour (the hmmer pattern of
// Fig. 6). Ten profiles named after the paper's benchmarks are calibrated
// to the qualitative classes the paper reports.
package trace

import (
	"fmt"
	"math"

	"shadowblock/internal/rng"
)

// Access is one memory reference at block (cache-line) granularity.
type Access struct {
	Block uint32 // block address within the data space
	Write bool
	Gap   int32 // compute cycles between the previous reference and this one
	Dep   bool  // depends on the previous access's data (pointer chase)
	// NonTemporal accesses bypass cache allocation (streaming/hashed data
	// the program knows will thrash), so their reuse reaches the ORAM with
	// its native interval.
	NonTemporal bool
}

// Profile parameterises a synthetic workload.
type Profile struct {
	Name string

	FootprintBlocks int     // total distinct blocks the program touches
	HotBlocks       int     // size of the Zipf-distributed hot set
	HotFraction     float64 // fraction of references aimed at the hot set
	StreamFraction  float64 // fraction of references that continue a sequential scan
	WriteFraction   float64 // fraction of references that are stores
	PointerChase    float64 // fraction of references that depend on the previous one

	MeanGap int // mean compute cycles between references

	ZipfTheta float64 // skew of the hot-set distribution (0 = uniform, <1)

	// SpatialRun is the mean length of sequential-line runs: after picking
	// a block, the generator continues through its neighbours for a
	// geometrically distributed run. Real programs touch several
	// consecutive lines per object, which is what gives the position-map
	// lookup buffer (16 consecutive blocks per posmap block) its hit rate.
	SpatialRun int

	// StreamLoopBlocks bounds the region the streaming accesses cycle
	// through (0 = the whole footprint). A loop somewhat larger than the
	// LLC models a working set revisited pass after pass: every line
	// misses, yet recurs at the ORAM with medium intervals — the
	// population whose tree depth RD-Dup's shadows cut into.
	StreamLoopBlocks int

	// HotNonTemporal is the fraction of hot-set accesses issued with the
	// non-temporal hint. The paper's baseline on-chip hit rates (Fig. 16:
	// 10–35% from a 200-entry stash plus 35 treetop blocks) imply its miss
	// streams re-touch a small set at intervals of tens-to-hundreds of
	// misses; an inclusive LRU LLC on conflict-free traffic filters such
	// reuse completely, so the cache-hostile component of real workloads is
	// modelled explicitly.
	HotNonTemporal float64

	// HotConflict lays the hot set out on a power-of-two stride (2048
	// lines, one L2 set span), the classic pathological layout of hashed
	// and column-major structures: the hot core then thrashes the
	// set-associative caches and its reuse reaches the ORAM with short
	// intervals. This is what gives the paper's miss streams their
	// on-chip-hit potential (Fig. 16's 10-35% baseline stash+treetop hit
	// rates are impossible on a conflict-free LRU-filtered stream).
	HotConflict bool

	// Phase behaviour: when PhaseLen > 0, odd phases multiply the gap by
	// PhaseGapMult and re-aim the hot set at a shifted region, producing the
	// period-to-period LLC-miss-interval variation of Fig. 6.
	PhaseLen     int
	PhaseGapMult float64
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	switch {
	case p.FootprintBlocks <= 0:
		return fmt.Errorf("trace %s: FootprintBlocks must be positive", p.Name)
	case p.HotBlocks < 0 || p.HotBlocks > p.FootprintBlocks:
		return fmt.Errorf("trace %s: HotBlocks out of range", p.Name)
	case p.HotFraction < 0 || p.HotFraction > 1:
		return fmt.Errorf("trace %s: HotFraction out of range", p.Name)
	case p.StreamFraction < 0 || p.StreamFraction > 1:
		return fmt.Errorf("trace %s: StreamFraction out of range", p.Name)
	case p.WriteFraction < 0 || p.WriteFraction > 1:
		return fmt.Errorf("trace %s: WriteFraction out of range", p.Name)
	case p.MeanGap <= 0:
		return fmt.Errorf("trace %s: MeanGap must be positive", p.Name)
	case p.ZipfTheta < 0 || p.ZipfTheta >= 1:
		return fmt.Errorf("trace %s: ZipfTheta must be in [0,1)", p.Name)
	case p.SpatialRun < 0:
		return fmt.Errorf("trace %s: negative SpatialRun", p.Name)
	case p.StreamLoopBlocks < 0 || p.StreamLoopBlocks > p.FootprintBlocks:
		return fmt.Errorf("trace %s: StreamLoopBlocks out of range", p.Name)
	case p.HotNonTemporal < 0 || p.HotNonTemporal > 1:
		return fmt.Errorf("trace %s: HotNonTemporal out of range", p.Name)
	}
	return nil
}

// Source produces memory references one at a time. Next returns the next
// access and true, or a zero Access and false once the source is
// exhausted. It is the streaming interface the CPU model consumes: a
// simulator driving N cores holds N sources and never materialises a
// trace slice.
type Source interface {
	Next() (Access, bool)
}

// Stream is a pull-based trace generator: the same deterministic sequence
// Generate produces, one access per Next call, in O(1) memory. A
// full-scale multi-core run used to front-load cores × refs Access values
// (hundreds of MB at paperbench scale); a Stream is a few words of
// generator state.
type Stream struct {
	p Profile
	r *rng.Xoshiro
	i int // references produced so far
	n int // references this stream yields in total

	loop       int
	streamBase uint32
	streamOff  uint32
	zipfExp    float64
	runPos     uint32
	runLeft    int
}

// NewStream returns a stream yielding exactly n references from seed —
// byte-for-byte the sequence Generate(n, seed) returns (Generate is
// implemented on top of Stream; TestStreamMatchesGenerate pins it). A
// negative n is an error.
func (p Profile) NewStream(n int, seed uint64) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("trace %s: %d references, want n >= 0", p.Name, n)
	}
	s := &Stream{p: p, n: n, r: rng.NewXoshiro(seed ^ 0x5bd1e995)}
	s.loop = p.FootprintBlocks
	if p.StreamLoopBlocks > 0 && p.StreamLoopBlocks < s.loop {
		s.loop = p.StreamLoopBlocks
	}
	s.streamBase = uint32(p.FootprintBlocks - s.loop)
	s.streamOff = uint32(s.r.Intn(s.loop))
	s.zipfExp = 1.0
	if p.ZipfTheta > 0 {
		s.zipfExp = 1 / (1 - p.ZipfTheta)
	}
	return s, nil
}

// Next produces the stream's next reference; false once n references have
// been drawn.
func (s *Stream) Next() (Access, bool) {
	if s.i >= s.n {
		return Access{}, false
	}
	p := &s.p
	r := s.r
	phaseOdd := p.PhaseLen > 0 && (s.i/p.PhaseLen)%2 == 1
	const hotShift = 0 // the hot core is stable; phases modulate gaps only

	var blk uint32
	nt := false
	switch u := r.Float64(); {
	case s.runLeft > 0:
		s.runLeft--
		s.runPos = (s.runPos + 1) % uint32(p.FootprintBlocks)
		blk = s.runPos
	case u < p.StreamFraction:
		s.streamOff = (s.streamOff + 1) % uint32(s.loop)
		blk = s.streamBase + s.streamOff
	case p.HotBlocks > 0 && u < p.StreamFraction+(1-p.StreamFraction)*p.HotFraction:
		// Zipf-distributed rank within the hot set.
		rank := int(float64(p.HotBlocks) * math.Pow(r.Float64(), s.zipfExp))
		if rank >= p.HotBlocks {
			rank = p.HotBlocks - 1
		}
		if p.HotConflict {
			blk = uint32((conflictAddr(rank, p.FootprintBlocks) + hotShift) % p.FootprintBlocks)
		} else {
			blk = uint32((rank + hotShift) % p.FootprintBlocks)
		}
		nt = r.Float64() < p.HotNonTemporal
	default:
		blk = uint32(r.Intn(p.FootprintBlocks))
	}
	if p.SpatialRun > 1 && s.runLeft == 0 && r.Intn(2) == 0 {
		// Start a sequential run of geometric mean SpatialRun from blk.
		s.runLeft = 1 + r.Intn(2*p.SpatialRun-1)
		s.runPos = blk
	}

	gap := p.MeanGap/2 + r.Intn(p.MeanGap+1)
	if phaseOdd && p.PhaseGapMult > 0 {
		gap = int(float64(gap) * p.PhaseGapMult)
	}

	s.i++
	return Access{
		Block:       blk,
		Write:       r.Float64() < p.WriteFraction,
		Gap:         int32(gap),
		Dep:         r.Float64() < p.PointerChase,
		NonTemporal: nt,
	}, true
}

// Generate produces n references deterministically from seed. It drains a
// Stream into a slice; callers that replay a trace many times (tracegen,
// figure replays) want the slice, the simulator itself streams.
func (p Profile) Generate(n int, seed uint64) ([]Access, error) {
	s, err := p.NewStream(n, seed)
	if err != nil {
		return nil, err
	}
	out := make([]Access, n)
	for i := range out {
		out[i], _ = s.Next()
	}
	return out, nil
}

// SliceSource adapts a materialised trace to the Source interface.
type SliceSource struct {
	a []Access
	i int
}

// NewSliceSource wraps a trace slice as a Source.
func NewSliceSource(a []Access) *SliceSource { return &SliceSource{a: a} }

// Next returns the slice's next access.
func (s *SliceSource) Next() (Access, bool) {
	if s.i >= len(s.a) {
		return Access{}, false
	}
	a := s.a[s.i]
	s.i++
	return a, true
}

// conflictAddr maps a hot-set rank onto a 2048-line stride (the span of
// one pass over a 2048-set L2), so consecutive ranks collide in a handful
// of cache sets.
func conflictAddr(rank, footprint int) int {
	const stride = 2048
	group := footprint / stride
	if group < 1 {
		return rank % footprint
	}
	return (rank%group*stride + rank/group) % footprint
}
