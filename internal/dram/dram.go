// Package dram is a bank-state DDR3 timing model in the spirit of DRAMSim2,
// reduced to what an ORAM path access exercises: row-buffer hits and misses,
// bank-level parallelism, per-channel data-bus contention, and the
// activate-to-precharge window.
//
// All times are in CPU cycles. The default configuration models DDR3-1333
// under a 2 GHz core (1 memory cycle = 3 CPU cycles), matching Table I of
// the paper (DDR3-1333, 2 channels, 21.3 GB/s peak).
package dram

import (
	"fmt"
	"math/bits"
	"slices"
)

// Config holds the organisation and timing of the memory system.
// Timing fields are in CPU cycles.
type Config struct {
	Channels        int // independent channels, each with its own data bus
	BanksPerChannel int // banks ganged per channel (rank*banks flattened)
	RowBytes        int // row-buffer (page) size per bank

	TRCD   int64 // activate -> column command
	TCL    int64 // column read -> first data
	TRP    int64 // precharge period
	TRAS   int64 // activate -> precharge minimum
	TBURST int64 // data burst occupancy on the bus (BL8)
	TCCD   int64 // column command -> column command, same bank
	TWR    int64 // write recovery before precharge
}

// DDR3_1333 returns the default DDR3-1333 configuration for a 2 GHz core:
// 9-9-9 at 666 MHz memory clock = 27 CPU cycles each, BL8 burst = 12 cycles.
func DDR3_1333() Config {
	return Config{
		Channels:        2,
		BanksPerChannel: 8,
		RowBytes:        8192,
		TRCD:            27,
		TCL:             27,
		TRP:             27,
		TRAS:            72,
		TBURST:          12,
		TCCD:            12,
		TWR:             45,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram: Channels = %d must be positive", c.Channels)
	case c.BanksPerChannel <= 0:
		return fmt.Errorf("dram: BanksPerChannel = %d must be positive", c.BanksPerChannel)
	case c.Channels > maxInterleave || c.BanksPerChannel > maxInterleave:
		return fmt.Errorf("dram: %d channels x %d banks exceed %d per dimension", c.Channels, c.BanksPerChannel, maxInterleave)
	case c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0:
		return fmt.Errorf("dram: RowBytes = %d must be a positive power of two", c.RowBytes)
	case c.TRCD <= 0 || c.TCL <= 0 || c.TRP <= 0 || c.TBURST <= 0:
		return fmt.Errorf("dram: timing parameters must be positive")
	}
	return nil
}

type bank struct {
	openRow    int64 // -1 when precharged
	readyAt    int64 // earliest next column command
	activateAt int64 // time of last activate (for tRAS)
	writeEnd   int64 // end of the last write burst (for tWR before precharge)

	// Attribution counters (pure observation, never consulted for timing):
	// busy is the cycles the bank spent on row work (precharge/activate)
	// plus column-command occupancy; stall is the cycles accesses waited
	// for the bank to accept their command.
	busy  int64
	stall int64
}

type channel struct {
	busFreeAt int64
	busBusy   int64 // cumulative cycles of reserved data-bus occupancy
	busStall  int64 // cycles data bursts waited for the bus (attribution)
	banks     []bank
}

// Stats accumulates observable memory-system activity, used by the energy
// model and the evaluation.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	Activates uint64
}

// Memory is the stateful timing model.
type Memory struct {
	cfg      Config
	channels []channel
	stats    Stats

	// The address decode, precomputed by New (see mapAddr).
	rowShift uint
	chanDiv  divisor
	bankDiv  divisor

	scratch []int64 // completions of a batch whose caller wants none
}

// maxInterleave bounds Channels and BanksPerChannel, so every row index
// below maxRows decodes exactly (see divisor).
const maxInterleave = 1 << 16

// maxRows bounds the row index mapAddr decodes: 2^31 rows, 16 TiB at the
// default 8 KiB row, far above the largest tree the simulator builds.
const maxRows = 1 << 31

// divisor divides by a constant without a divide instruction. For every
// n < 2^31 and 1 <= d <= 2^32, n/d is n*m >> s with s = 31 + ceil(log2 d)
// and m = floor(2^s/d) + 1 (Granlund and Montgomery, "Division by
// invariant integers using multiplication", PLDI 1994, Thm 4.2), and n*m
// stays below 2^64. Powers of two and other divisors take the same path.
type divisor struct {
	d, m  uint64
	shift uint
}

func newDivisor(d int) divisor {
	s := 31 + uint(bits.Len(uint(d-1)))
	return divisor{d: uint64(d), m: 1<<s/uint64(d) + 1, shift: s}
}

// divmod returns n/d and n%d for n < 2^31.
func (v divisor) divmod(n uint64) (q, r uint64) {
	q = n * v.m >> v.shift
	return q, n - q*v.d
}

// New builds a Memory from cfg, reporting configuration errors.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{
		cfg:      cfg,
		channels: make([]channel, cfg.Channels),
		rowShift: uint(bits.TrailingZeros(uint(cfg.RowBytes))),
		chanDiv:  newDivisor(cfg.Channels),
		bankDiv:  newDivisor(cfg.BanksPerChannel),
	}
	for i := range m.channels {
		m.channels[i].banks = make([]bank, cfg.BanksPerChannel)
		for b := range m.channels[i].banks {
			m.channels[i].banks[b].openRow = -1
		}
	}
	return m, nil
}

// Stats returns a copy of the accumulated statistics.
func (m *Memory) Stats() Stats { return m.stats }

// Backlog reports how many cycles of already-committed data-bus work
// remain at cycle now: the furthest-ahead channel's bus reservation. It is
// the observability layer's DRAM queue-depth signal (a request issued at
// now waits at least this long for the bus alone).
func (m *Memory) Backlog(now int64) int64 {
	var worst int64
	for i := range m.channels {
		if d := m.channels[i].busFreeAt - now; d > worst {
			worst = d
		}
	}
	return worst
}

// NumChannels returns the number of independent channels.
func (m *Memory) NumChannels() int { return m.cfg.Channels }

// ChannelOf returns the index of the channel owning addr, as decided by the
// address interleaving. The ORAM engine's tracing uses it to attribute a
// batch's blocks to per-channel lanes.
func (m *Memory) ChannelOf(addr uint64) int {
	ch, _, _ := m.mapAddr(addr)
	return ch
}

// ChannelBusy returns the cumulative cycles of data-bus occupancy reserved
// on channel ch so far. Divided by elapsed simulated time it is the
// channel's bus utilisation — the observability layer's per-channel load
// signal.
func (m *Memory) ChannelBusy(ch int) int64 { return m.channels[ch].busBusy }

// BankLedger is one bank's cycle attribution: busy (row work plus column
// occupancy) and stall (cycles accesses waited for the bank).
type BankLedger struct {
	Busy  int64
	Stall int64
}

// ChannelLedger is one channel's cycle attribution: data-bus occupancy and
// contention, plus the per-bank breakdown.
type ChannelLedger struct {
	BusBusy  int64
	BusStall int64
	Banks    []BankLedger
}

// Ledger snapshots the memory system's per-channel / per-bank cycle
// attribution. Pure observation: the counters are charged alongside the
// timing decisions Access already makes and never feed back into them.
func (m *Memory) Ledger() []ChannelLedger {
	out := make([]ChannelLedger, len(m.channels))
	for i := range m.channels {
		c := &m.channels[i]
		cl := ChannelLedger{BusBusy: c.busBusy, BusStall: c.busStall, Banks: make([]BankLedger, len(c.banks))}
		for bk := range c.banks {
			cl.Banks[bk] = BankLedger{Busy: c.banks[bk].busy, Stall: c.banks[bk].stall}
		}
		out[i] = cl
	}
	return out
}

// mapAddr decomposes a physical byte address. Rows are interleaved across
// channels first and banks second, so that consecutive subtrees of the ORAM
// layout land on different channels/banks and a path access enjoys
// bank-level parallelism. The decode runs for every block the model
// moves, so it costs a shift and two multiplications, no divide (RowBytes
// is a power of two; channel and bank counts need not be).
func (m *Memory) mapAddr(addr uint64) (ch, bk int, row int64) {
	rowIdx := addr >> m.rowShift
	if rowIdx >= maxRows {
		outOfRange(rowIdx)
	}
	rest, c := m.chanDiv.divmod(rowIdx)
	r, b := m.bankDiv.divmod(rest)
	return int(c), int(b), int64(r)
}

func outOfRange(rowIdx uint64) {
	panic(fmt.Sprintf("dram: row %d beyond the %d rows the decode covers", rowIdx, maxRows))
}

// Access models one block transfer beginning no earlier than now and
// returns its completion cycle. transferOnBus=false models operations whose
// data never crosses the processor bus (used by the XOR-compression
// comparator, where the DRAM-internal reads still happen but only the XOR
// result is shipped).
func (m *Memory) Access(now int64, addr uint64, write, transferOnBus bool) int64 {
	var done [1]int64
	return m.run(now, addr>>m.rowShift, write, transferOnBus, done[:])
}

// run models back-to-back transfers to one row (rowIdx is the address
// shifted right by the row size), one per entry of done, each beginning no
// earlier than now; done receives each one's completion cycle and run
// returns the last one's. This is the timing model: Access is its
// one-block case, and ReserveBatch calls it once per run of a batch's
// blocks that share a row, so the address is decoded once per run.
func (m *Memory) run(now int64, rowIdx uint64, write, transferOnBus bool, done []int64) int64 {
	// mapAddr's decode, written out: the compiler does not inline a call
	// here, and one call per run costs as much as the rest of a one-block
	// run.
	if rowIdx >= maxRows {
		outOfRange(rowIdx)
	}
	rest, ch := m.chanDiv.divmod(rowIdx)
	r, bk := m.bankDiv.divmod(rest)
	row := int64(r)
	cfg := &m.cfg
	c := &m.channels[ch]
	b := &c.banks[bk]
	var last int64
	for k := range done {
		t := now
		if b.readyAt > now {
			b.stall += b.readyAt - now
			t = b.readyAt
		}
		rowWorkStart := t
		if b.openRow != row {
			if b.openRow != -1 {
				// Precharge may not begin before tRAS from the activate, nor
				// before write recovery of the last write burst completes.
				t = max(t, b.activateAt+cfg.TRAS)
				t = max(t, b.writeEnd+cfg.TWR)
				t += cfg.TRP
			}
			b.activateAt = t
			t += cfg.TRCD
			b.openRow = row
			m.stats.Activates++
			m.stats.RowMisses++
		} else {
			m.stats.RowHits++
		}
		// The bank is occupied from the access's arbitration grant through
		// its row work (precharge/activate on a miss) and the column
		// command slot. Column commands to an open row pipeline at tCCD
		// for reads and writes alike (CAS latency overlaps with the next
		// command); tWR only gates a later precharge.
		b.busy += t - rowWorkStart + cfg.TCCD
		b.readyAt = t + cfg.TCCD

		// Column command at t, data after CAS latency, serialised on the
		// bus.
		d := t + cfg.TCL
		if transferOnBus {
			if wait := c.busFreeAt - d; wait > 0 {
				c.busStall += wait
				d = c.busFreeAt
			}
			d += cfg.TBURST
			c.busFreeAt = d
			c.busBusy += cfg.TBURST
		} else {
			d += cfg.TBURST
		}
		if write {
			b.writeEnd = d
		}
		done[k] = d
		last = max(last, d)
	}
	if write {
		m.stats.Writes += uint64(len(done))
	} else {
		m.stats.Reads += uint64(len(done))
	}
	return last
}

// Op selects the operation a batch reservation models.
type Op uint8

// Batch operation kinds: plain reads, writes, and the XOR-compression
// reads whose data never crosses the processor bus.
const (
	OpRead Op = iota
	OpWrite
	OpReadOffBus
)

// ReserveBatch reserves bank, row and bus timing for one access per addr,
// in order, none beginning before now. When done is non-nil it must be
// len(addrs) long and receives each access's completion cycle. The return
// value is the completion cycle of the whole batch (for OpReadOffBus,
// including the single burst that ships the XOR result).
//
// ReserveBatch is the ORAM memory port's only arbitration: each access
// starts at max(now, its bank's ready time), so a path read presented
// while a parked write-back still drains overlaps it on the banks that are
// free and waits exactly as long as it must on the banks that are not.
// Presenting the batch later, at any cycle up to the earliest ready time of
// its banks, reserves the same cycles (only the banks' stall counters
// differ), so a caller never needs to arbitrate first.
func (m *Memory) ReserveBatch(now int64, op Op, addrs []uint64, done []int64) int64 {
	// A mismatched caller is a programming error (the batch would silently
	// truncate or index out of range), so it fails loudly.
	if done != nil && len(done) != len(addrs) {
		panic(fmt.Sprintf("dram: ReserveBatch: done has %d slots for %d addresses", len(done), len(addrs)))
	}
	// Blocks that share a row are consecutive in a path batch (a subtree
	// fills one row), so the batch is a few runs, each decoded once. Runs
	// reserve in batch order, exactly as block-by-block Access calls would.
	if done == nil {
		m.scratch = slices.Grow(m.scratch[:0], len(addrs))[:len(addrs)]
		done = m.scratch
	}
	write, onBus := op == OpWrite, op != OpReadOffBus
	var finish int64
	for i := 0; i < len(addrs); {
		rowIdx := addrs[i] >> m.rowShift
		j := i + 1
		for j < len(addrs) && addrs[j]>>m.rowShift == rowIdx {
			j++
		}
		finish = max(finish, m.run(now, rowIdx, write, onBus, done[i:j]))
		i = j
	}
	if op == OpReadOffBus {
		finish += m.cfg.TBURST
	}
	return finish
}

// BankFreeAt returns the earliest cycle at which the bank owning addr can
// accept a new column command, given every access reserved so far. The row
// state may still force a precharge/activate after that point; this is the
// issue-time query, not a completion estimate.
func (m *Memory) BankFreeAt(addr uint64) int64 {
	ch, bk, _ := m.mapAddr(addr)
	return m.channels[ch].banks[bk].readyAt
}

// NextIdleWindow returns the earliest cycle >= from at which the bank
// owning addr could begin new work without waiting on any access reserved
// so far. Reservations are prefix-ordered — the model only ever extends
// bank state forward — so once the bank's last reserved column command has
// retired the bank is idle indefinitely: a window never closes, and one
// that opens at t holds work of any length (a caller's fit check sizes the
// work with AccessSpan). The decoupled writeback scheduler uses this query
// to slot queued writes into bank idle time between reads.
func (m *Memory) NextIdleWindow(addr uint64, from int64) int64 {
	return max(from, m.BankFreeAt(addr))
}

// AccessSpan conservatively bounds the duration of n back-to-back accesses
// to one bank: one worst-case row turnaround (write recovery + precharge +
// activate from a previous row) plus n column commands and the trailing
// CAS latency and burst. Schedulers use it to decide whether a batch fits
// a window without mutating any bank state; the true reserved span is
// never longer.
func (m *Memory) AccessSpan(n int) int64 {
	per := m.cfg.TCCD
	if m.cfg.TBURST > per {
		per = m.cfg.TBURST
	}
	return m.cfg.TRAS + m.cfg.TWR + m.cfg.TRP + m.cfg.TRCD +
		int64(n)*per + m.cfg.TCL + m.cfg.TBURST
}
