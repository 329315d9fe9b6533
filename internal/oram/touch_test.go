package oram_test

import (
	"fmt"
	"testing"

	"shadowblock/internal/core"
	"shadowblock/internal/oram"
	_ "shadowblock/internal/ring" // register the "ring" engine
	"shadowblock/internal/rng"
)

// The touch-sequence tables: every timing axis of the memory port and
// every core count may move cycles, but never which paths an engine reads
// and writes or in what order. They live in an external test package so
// they can build every registered engine through the seam.

// touchRow is one (engine, policy) row. hitsOff disables shadow stash hits:
// under dynamic-N the partition level follows the gaps between requests
// (the DRI signal), so a faster or slower memory system can change which
// requests a shadow serves on-chip, and with them which requests reach the
// tree at all. The claim under test is about the accesses that do reach it.
type touchRow struct {
	prefix  string // scheme prefix of the row's subtest names; "" keeps the bare shape names
	engine  string
	pcfg    *core.Config
	hitsOff bool
}

func touchRows() []touchRow {
	dyn := core.Dynamic(3)
	return []touchRow{
		{"", oram.PathEngine, nil, false},
		{"ring:tiny", "ring", nil, false},
		{"ring:dynamic-3", "ring", &dyn, true},
	}
}

// touchShapes are the memory-system shapes each row runs under.
var touchShapes = []struct {
	name, suffix string
	channels     int
}{
	{"serial", "", 0},
	{"serial-c1", "-c1", 1},
	{"serial-c4", "-c4", 4},
}

// touchConfig is the small configuration every row runs.
func touchConfig(row touchRow) oram.Config {
	cfg := oram.Default()
	cfg.L = 8
	cfg.StashCapacity = 120
	cfg.DisableShadowHits = row.hitsOff
	return cfg
}

// queueTrace drives a fresh engine for row and cfg through a queue shared
// by the given number of cores, on a deterministic (cycle, addr, write)
// schedule independent of responses, and returns the observable external
// trace.
func queueTrace(t *testing.T, row touchRow, cfg oram.Config, cores, n int, seed uint64) []oram.Event {
	t.Helper()
	var pol oram.DupPolicy
	if row.pcfg != nil {
		p, err := core.NewUnbound(*row.pcfg)
		if err != nil {
			t.Fatal(err)
		}
		pol = p
	}
	eng, err := oram.NewEngine(row.engine, cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	var events []oram.Event
	eng.SetObserver(func(e oram.Event) { events = append(events, e) })
	q := oram.NewQueue(eng, cores)
	r := rng.NewXoshiro(seed)
	space := uint64(cfg.NumDataBlocks())
	for i := 0; i < n; i++ {
		q.Issue(int64(i)*1700, i%cores, uint32(r.Uint64n(space)), r.Float64() < 0.3)
	}
	return events
}

// sameTouches fails the test at the first event whose (kind, leaf) differs.
func sameTouches(t *testing.T, what string, got, ref []oram.Event) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: trace length %d, reference %d", what, len(got), len(ref))
	}
	for i := range got {
		if got[i].Kind != ref[i].Kind || got[i].Leaf != ref[i].Leaf {
			t.Fatalf("%s: event %d touches a different location: %+v vs %+v", what, i, got[i], ref[i])
		}
	}
}

// forEachShape runs fn as one subtest per row × shape.
func forEachShape(t *testing.T, fn func(t *testing.T, row touchRow, cfg oram.Config)) {
	for _, row := range touchRows() {
		for _, sh := range touchShapes {
			name := sh.name
			if row.prefix != "" {
				name = row.prefix + sh.suffix
			}
			t.Run(name, func(t *testing.T) {
				cfg := touchConfig(row)
				cfg.Channels = sh.channels
				fn(t, row, cfg)
			})
		}
	}
}

// TestQueueTouchSequenceAcrossCores is the front end's security argument as
// an executable check: how many cores share the queue may change *when*
// requests issue and which ones coalesce away entirely, but never which
// physical locations an issued access touches or in what order. For every
// engine and memory-system shape, the (kind, leaf) trace under the same
// request schedule must be identical for 1, 2, and 4 cores.
func TestQueueTouchSequenceAcrossCores(t *testing.T) {
	forEachShape(t, func(t *testing.T, row touchRow, cfg oram.Config) {
		ref := queueTrace(t, row, cfg, 1, 400, 97)
		for _, cores := range []int{2, 4} {
			sameTouches(t, fmt.Sprintf("cores=%d", cores), queueTrace(t, row, cfg, cores, 400, 97), ref)
		}
	})
}

// TestDecoupledTouchSequenceUnchanged is the decoupled scheduler's security
// argument as an executable check: deferring per-bucket writeback
// reservations may move DRAM *cycles*, but never which physical locations
// an engine touches or in what order. For every engine, memory-system
// shape and core count, the (kind, leaf) event trace with the scheduler on
// must be identical to the coupled trace under the same request schedule.
func TestDecoupledTouchSequenceUnchanged(t *testing.T) {
	forEachShape(t, func(t *testing.T, row touchRow, cfg oram.Config) {
		for _, cores := range []int{1, 2, 4} {
			ref := queueTrace(t, row, cfg, cores, 400, 131)
			wbd := cfg
			wbd.WBDecoupled = true
			sameTouches(t, fmt.Sprintf("cores=%d", cores), queueTrace(t, row, wbd, cores, 400, 131), ref)
		}
	})
}

// TestAllAxesTouchSequence closes the chain the two tables above build
// link by link: every memory-system axis and four cores at once
// (-c4-wbd-core4) touch exactly what the serial single-core engine
// touches, on each engine.
func TestAllAxesTouchSequence(t *testing.T) {
	for _, row := range touchRows() {
		cfg := touchConfig(row)
		ref := queueTrace(t, row, cfg, 1, 400, 97)
		cfg.Channels, cfg.WBDecoupled = 4, true
		sameTouches(t, row.engine+" "+row.prefix+"-c4-wbd-core4", queueTrace(t, row, cfg, 4, 400, 97), ref)
	}
}
