package main

import (
	"bytes"
	"testing"

	"shadowblock/internal/sim"
	"shadowblock/internal/store"
)

// The backend decorator must hand back exactly what the backend returned —
// slots and errors — or the engine under test is no longer the engine.
func TestTracedBackendIsPassThrough(t *testing.T) {
	const buckets, slots = 16, 5
	plain := store.NewMem(buckets, slots)
	tb := newTracedBackend(store.NewMem(buckets, slots), newTracer(1, 100), buckets)
	tb.tr.nextRequest()

	write := func(b int, s [][]byte) {
		t.Helper()
		errPlain, errTraced := plain.WriteBucket(b, s), tb.WriteBucket(b, s)
		if (errPlain == nil) != (errTraced == nil) {
			t.Fatalf("WriteBucket(%d): plain err %v, traced err %v", b, errPlain, errTraced)
		}
	}
	write(3, [][]byte{[]byte("aaaa"), nil, []byte("bb"), nil, nil})
	write(3, [][]byte{[]byte("aaaa"), []byte("cccccc"), []byte("bb"), nil, nil}) // one more ciphertext
	write(3, [][]byte{nil, []byte("cccccc"), []byte("bb"), nil, nil})            // a cleared slot
	write(7, [][]byte{[]byte("x"), nil, nil, nil, nil})
	write(buckets, make([][]byte, slots)) // out of range: both must refuse
	write(2, make([][]byte, slots-1))     // wrong slot count: both must refuse

	for b := -1; b <= buckets; b++ {
		want, errPlain := plain.ReadBucket(b)
		got, errTraced := tb.ReadBucket(b)
		if (errPlain == nil) != (errTraced == nil) {
			t.Fatalf("ReadBucket(%d): plain err %v, traced err %v", b, errPlain, errTraced)
		}
		if len(got) != len(want) {
			t.Fatalf("ReadBucket(%d): %d slots, want %d", b, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) || (got[i] == nil) != (want[i] == nil) {
				t.Errorf("bucket %d slot %d: %q, want %q", b, i, got[i], want[i])
			}
		}
	}
	if tb.sealedWrites != 3 {
		t.Errorf("sealedWrites = %d, want 3 (the cleared slot sealed nothing)", tb.sealedWrites)
	}
	if want := uint64(6 + 12 + 8 + 1); tb.bytesWritten != want {
		t.Errorf("bytesWritten = %d, want %d", tb.bytesWritten, want)
	}
	if err := tb.Close(); err != nil {
		t.Error(err)
	}
}

// sim.Run cannot take decorators, so the traced repetition re-assembles the
// run from the same public calls. Bare or fully decorated, it must land on
// sim.Run's cycle count and counters: a decorator that changed one call's
// arguments, dropped the policy's geometry binding, or hid the controller
// from the queue's write-back pump would show here.
func TestComposedSimMatchesSimRun(t *testing.T) {
	for _, scheme := range []string{"tiny", "dynamic-3", "dynamic-3-pipe-c4-wbd-core4"} {
		t.Run(scheme, func(t *testing.T) {
			spec, err := simSpec(workload{Kind: kindSim, Profile: "mcf", Scheme: scheme, Refs: 2000}, 7)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				var tr *tracer
				if traced {
					tr = newTracer(50, 1000)
				}
				got, err := composeSim(spec, tr, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cycles != want.Cycles {
					t.Errorf("traced=%v: %d cycles, sim.Run %d", traced, got.Cycles, want.Cycles)
				}
				if got.ORAM != want.ORAM || got.Queue != want.Queue || got.Mem != want.Mem || got.CPU != want.CPU {
					t.Errorf("traced=%v: counters differ from sim.Run's", traced)
				}
				if !traced {
					continue
				}
				if n := tr.calls[layTrace]; n != uint64(2000*spec.CPU.Cores+spec.CPU.Cores) {
					t.Errorf("Source.Next spans = %d, want one per reference plus the end-of-stream calls", n)
				}
				q := got.Queue
				if n, want := tr.calls[layORAM], q.Issued+q.OnChip+q.Coalesced+1; n != want {
					t.Errorf("Issue spans = %d, want %d (every presented miss, plus the drain)", n, want)
				}
				policyCalls := tr.calls[layCore] + tr.skipped[layCore]
				if (scheme == "tiny") != (policyCalls == 0) {
					t.Errorf("%d policy calls under scheme %s", policyCalls, scheme)
				}
			}
		})
	}
}
