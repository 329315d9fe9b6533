package openaddr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// op is one step of a differential sequence.
type op struct {
	Kind uint8 // 0-3 put, 4-5 delete, 6 get, 7 reset
	Key  uint8 // index into the sequence's key pool
	Val  int32
}

// opSeq is a random op sequence over a key pool that is rich in collisions:
// keys sharing one home slot, keys homed on the table's last slots (whose
// runs wrap around to slot 0), and a few arbitrary keys.
type opSeq struct {
	Bound int
	Pool  []uint32
	Ops   []op
}

func (opSeq) Generate(r *rand.Rand, size int) reflect.Value {
	bound := 1 + r.Intn(12)
	t := New(bound)
	var pool []uint32
	homes := []uint32{uint32(r.Intn(len(t.slots))), t.mask, t.mask - 1}
	for key := uint32(r.Intn(1 << 20)); len(pool) < 3*bound+6; key++ {
		h := t.home(key)
		if h == homes[0] || h == homes[1] || h == homes[2] || r.Intn(64) == 0 {
			pool = append(pool, key)
		}
	}
	ops := make([]op, 10*size+50)
	for i := range ops {
		ops[i] = op{Kind: uint8(r.Intn(8)), Key: uint8(r.Intn(len(pool))), Val: r.Int31()}
		if ops[i].Kind == 7 && r.Intn(4) != 0 {
			ops[i].Kind = 6 // keep resets rare enough for long runs to build
		}
	}
	return reflect.ValueOf(opSeq{Bound: bound, Pool: pool, Ops: ops})
}

// TestTableMatchesMap drives a Table and a Go map through the same random
// insert/lookup/delete/reset sequences and demands equal answers after
// every step, for every key of the pool.
func TestTableMatchesMap(t *testing.T) {
	check := func(seq opSeq) bool {
		tab := New(seq.Bound)
		ref := make(map[uint32]int32)
		for step, o := range seq.Ops {
			key := seq.Pool[o.Key]
			switch {
			case o.Kind <= 3:
				if _, ok := ref[key]; !ok && len(ref) == seq.Bound {
					continue // the caller's bound is a promise; keep it
				}
				tab.Put(key, o.Val)
				ref[key] = o.Val
			case o.Kind <= 5:
				tab.Delete(key)
				delete(ref, key)
			case o.Kind == 7:
				tab.Reset()
				clear(ref)
			}
			if tab.Len() != len(ref) {
				t.Logf("step %d: Len %d, map holds %d", step, tab.Len(), len(ref))
				return false
			}
			for _, k := range seq.Pool {
				got, ok := tab.Get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Logf("step %d (%+v): Get(%d) = %d,%v, want %d,%v", step, o, k, got, ok, want, wok)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteShiftsWrappedRun builds a probe run that wraps from the last
// slot to slot 0 and deletes its head: the wrapped entries must move back
// and stay reachable.
func TestDeleteShiftsWrappedRun(t *testing.T) {
	tab := New(4)
	var keys []uint32
	for key := uint32(0); len(keys) < 3; key++ {
		if tab.home(key) == tab.mask {
			keys = append(keys, key)
		}
	}
	for i, k := range keys {
		tab.Put(k, int32(i))
	}
	if tab.slots[0].gen != tab.gen || tab.slots[1].gen != tab.gen {
		t.Fatal("the run did not wrap to slots 0 and 1")
	}
	tab.Delete(keys[0])
	for i, k := range keys[1:] {
		if v, ok := tab.Get(k); !ok || v != int32(i+1) {
			t.Fatalf("key %d after deleting the run's head: %d,%v", k, v, ok)
		}
	}
	if tab.slots[1].gen == tab.gen {
		t.Fatal("the run's tail was not shifted back")
	}
}

func TestPutPastBoundPanics(t *testing.T) {
	tab := New(2)
	tab.Put(1, 1)
	tab.Put(2, 2)
	tab.Put(2, 3) // an update adds nothing
	defer func() {
		if recover() == nil {
			t.Fatal("a third entry fitted a table bounded at two")
		}
	}()
	tab.Put(3, 3)
}

// TestResetSurvivesGenerationWrap: slots written before the generation
// counter wraps must not read as live after it.
func TestResetSurvivesGenerationWrap(t *testing.T) {
	tab := New(4)
	tab.gen = 1
	tab.Put(7, 70)
	tab.gen = ^uint32(0)
	tab.Put(8, 80)
	tab.Reset() // wraps to 0, clears, restarts at 1
	if _, ok := tab.Get(7); ok {
		t.Fatal("an entry of generation 1 from before the wrap is live again")
	}
	if _, ok := tab.Get(8); ok || tab.Len() != 0 {
		t.Fatal("Reset left entries behind")
	}
}

func TestTableZeroAlloc(t *testing.T) {
	tab := New(64)
	i := uint32(0)
	got := testing.AllocsPerRun(1000, func() {
		i++
		tab.Put(i, int32(i))
		tab.Get(i - 1)
		tab.Delete(i - 3)
		if i%50 == 0 {
			tab.Reset()
		}
	})
	if got != 0 {
		t.Fatalf("%.1f allocs per op sequence, want 0", got)
	}
}

func BenchmarkTable(b *testing.B) {
	tab := New(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint32(i) * 7919
		tab.Put(k, int32(i))
		tab.Get(k)
		if tab.Len() == 200 {
			tab.Reset()
		}
	}
}
