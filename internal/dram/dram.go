// Package dram is a bank-state DDR3 timing model in the spirit of DRAMSim2,
// reduced to what an ORAM path access exercises: row-buffer hits and misses,
// bank-level parallelism, per-channel data-bus contention, and the
// activate-to-precharge window.
//
// All times are in CPU cycles. The default configuration models DDR3-1333
// under a 2 GHz core (1 memory cycle = 3 CPU cycles), matching Table I of
// the paper (DDR3-1333, 2 channels, 21.3 GB/s peak).
package dram

import "fmt"

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
	case c.RowBytes <= 0:
		return fmt.Errorf("dram: RowBytes = %d must be positive", c.RowBytes)
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
}

// New builds a Memory from cfg, reporting configuration errors.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{cfg: cfg, channels: make([]channel, cfg.Channels)}
	for i := range m.channels {
		m.channels[i].banks = make([]bank, cfg.BanksPerChannel)
		for b := range m.channels[i].banks {
			m.channels[i].banks[b].openRow = -1
		}
	}
	return m, nil
}

// MustNew is New for statically known-good configurations.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the configuration the memory was built with.
func (m *Memory) Config() Config { return m.cfg }

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

// ChannelBacklog reports the remaining reserved data-bus work of one
// channel at cycle now (the per-channel variant of Backlog).
func (m *Memory) ChannelBacklog(ch int, now int64) int64 {
	if d := m.channels[ch].busFreeAt - now; d > 0 {
		return d
	}
	return 0
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
// bank-level parallelism.
func (m *Memory) mapAddr(addr uint64) (ch, bk int, row int64) {
	rowIdx := addr / uint64(m.cfg.RowBytes)
	ch = int(rowIdx % uint64(m.cfg.Channels))
	rest := rowIdx / uint64(m.cfg.Channels)
	bk = int(rest % uint64(m.cfg.BanksPerChannel))
	row = int64(rest / uint64(m.cfg.BanksPerChannel))
	return ch, bk, row
}

// Access models one block transfer beginning no earlier than now and
// returns its completion cycle. transferOnBus=false models operations whose
// data never crosses the processor bus (used by the XOR-compression
// comparator, where the DRAM-internal reads still happen but only the XOR
// result is shipped).
func (m *Memory) Access(now int64, addr uint64, write, transferOnBus bool) int64 {
	ch, bk, row := m.mapAddr(addr)
	c := &m.channels[ch]
	b := &c.banks[bk]

	t := max(now, b.readyAt)
	if b.readyAt > now {
		b.stall += b.readyAt - now
	}
	rowWorkStart := t
	if b.openRow != row {
		if b.openRow != -1 {
			// Precharge may not begin before tRAS from the activate, nor
			// before write recovery of the last write burst completes.
			t = max(t, b.activateAt+m.cfg.TRAS)
			t = max(t, b.writeEnd+m.cfg.TWR)
			t += m.cfg.TRP
		}
		b.activateAt = t
		t += m.cfg.TRCD
		b.openRow = row
		m.stats.Activates++
		m.stats.RowMisses++
	} else {
		m.stats.RowHits++
	}
	// The bank is occupied from the access's arbitration grant through its
	// row work (precharge/activate on a miss) and the column command slot.
	b.busy += t - rowWorkStart + m.cfg.TCCD

	// Column command at t, data after CAS latency, serialised on the bus.
	dataStart := t + m.cfg.TCL
	if transferOnBus {
		if wait := c.busFreeAt - dataStart; wait > 0 {
			c.busStall += wait
		}
		dataStart = max(dataStart, c.busFreeAt)
	}
	done := dataStart + m.cfg.TBURST

	if transferOnBus {
		c.busFreeAt = done
		c.busBusy += m.cfg.TBURST
	}
	// Column commands to an open row pipeline at tCCD for reads and writes
	// alike (CAS latency overlaps with the next command); tWR only gates a
	// later precharge.
	b.readyAt = t + m.cfg.TCCD
	if write {
		b.writeEnd = done
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	return done
}

// Read models a block read; see Access.
func (m *Memory) Read(now int64, addr uint64) int64 {
	return m.Access(now, addr, false, true)
}

// Write models a block write; see Access.
func (m *Memory) Write(now int64, addr uint64) int64 {
	return m.Access(now, addr, true, true)
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
// ReserveBatch is the arbitration primitive of the pipelined ORAM engine:
// combined with the earliest-start queries (BankFreeAt, EarliestBatchStart)
// it lets a controller issue a path read as soon as the first needed bank
// frees, while the bank and bus state it reserves makes any access that
// does conflict with still-draining work wait exactly as long as it must.
func (m *Memory) ReserveBatch(now int64, op Op, addrs []uint64, done []int64) int64 {
	// A mismatched caller is a programming error (the batch would silently
	// truncate or index out of range), so it fails loudly.
	if done != nil && len(done) != len(addrs) {
		panic(fmt.Sprintf("dram: ReserveBatch: done has %d slots for %d addresses", len(done), len(addrs)))
	}
	var finish int64
	for i, a := range addrs {
		var d int64
		switch op {
		case OpWrite:
			d = m.Access(now, a, true, true)
		case OpReadOffBus:
			d = m.Access(now, a, false, false)
		default:
			d = m.Access(now, a, false, true)
		}
		if done != nil {
			done[i] = d
		}
		if d > finish {
			finish = d
		}
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

// BusFreeAt returns the earliest cycle at which addr's channel data bus is
// free of already-reserved transfers.
func (m *Memory) BusFreeAt(addr uint64) int64 {
	ch, _, _ := m.mapAddr(addr)
	return m.channels[ch].busFreeAt
}

// NextIdleWindow returns the earliest cycle >= from at which the bank
// owning addr could begin dur cycles of new work without waiting on any
// access reserved so far. Reservations are prefix-ordered — the model only
// ever extends bank state forward — so once the bank's last reserved
// column command has retired the bank is idle indefinitely and the window
// is simply max(from, readyAt); dur sizes the window for the caller's
// fit checks (a window that opens at t holds dur cycles of work ending at
// t+dur). The decoupled writeback scheduler uses this query to slot
// queued eviction writes into bank idle time between path reads.
func (m *Memory) NextIdleWindow(addr uint64, from, dur int64) int64 {
	_ = dur // windows never close in a monotonic reservation model
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

// EarliestBatchStart returns the earliest cycle at which a batch over addrs
// could usefully issue its first command: the minimum over addrs of the
// owning bank's ready time. Issuing earlier would only queue behind every
// involved bank; issuing at this cycle overlaps the batch with whatever
// work is still draining on the other banks. An empty batch may start
// anywhere (returns 0).
func (m *Memory) EarliestBatchStart(addrs []uint64) int64 {
	if len(addrs) == 0 {
		return 0
	}
	earliest := m.BankFreeAt(addrs[0])
	for _, a := range addrs[1:] {
		if t := m.BankFreeAt(a); t < earliest {
			earliest = t
		}
	}
	return earliest
}
