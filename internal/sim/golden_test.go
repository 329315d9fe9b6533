package sim

import (
	"reflect"
	"testing"

	"shadowblock/internal/core"
	"shadowblock/internal/cpu"
	"shadowblock/internal/oram"
	"shadowblock/internal/trace"
)

// goldenSpec builds a small fixed system: sjeng scaled 1/16, the in-order
// core, an L=12 tree (the small/ rows of the experiments cycle pins).
func goldenSpec(channels int, dynamic bool) Spec {
	p, _ := trace.ByName("sjeng")
	ocfg := oram.Default()
	ocfg.L = 12
	ocfg.Channels = channels
	spec := Spec{
		Profile: p.Scaled(1, 16),
		CPU:     cpu.InOrder(),
		Refs:    2500,
		Seed:    1,
		ORAM:    ocfg,
	}
	if dynamic {
		pc := core.Dynamic(3)
		spec.Policy = &pc
	}
	return spec
}

// TestMultiCoreDeterministic: a fixed seed fully determines a multi-core
// run. The (cycle, core) arbitration and the MSHR table are deterministic,
// so two executions of the same quad-core spec must agree on every metric,
// bit for bit, with the decoupled scheduler parking write-backs between
// the cores' requests too.
func TestMultiCoreDeterministic(t *testing.T) {
	spec := goldenSpec(4, true)
	spec.ORAM.WBDecoupled = true
	spec.CPU = cpu.O3()

	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same spec diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Queue.Issued == 0 {
		t.Fatal("front end saw no traffic")
	}
}

// TestQuadCoreSharesFrontEnd: a quad-core run actually exercises the
// multi-requestor path — misses reach the shared controller through the
// queue, and cross-core same-address misses coalesce.
func TestQuadCoreSharesFrontEnd(t *testing.T) {
	spec := goldenSpec(4, false)
	spec.CPU = cpu.O3()
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	q := m.Queue
	if q.Issued == 0 {
		t.Fatal("no misses issued through the front end")
	}
	if q.MaxDepth < 2 {
		t.Fatalf("max queue depth %d: four OOO cores never overlapped misses", q.MaxDepth)
	}
	// Only non-coalesced traffic reaches the controller.
	if q.Issued+q.OnChip != m.ORAM.Requests {
		t.Fatalf("front-end accounting broken: %+v vs %d controller requests", q, m.ORAM.Requests)
	}
}
