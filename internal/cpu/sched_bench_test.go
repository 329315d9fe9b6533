package cpu

import (
	"testing"

	"shadowblock/internal/trace"
)

// constMemory is a trivial constant-latency memory system, so the benchmark
// time is the scheduler + cache model and nothing else.
type constMemory struct{}

func (constMemory) Issue(now int64, _ int, _ uint32, _ bool) (int64, int64) {
	return now + 100, now + 100
}

// benchProfile is a cache-hostile profile: a large uniform footprint keeps
// the miss rate high so the scheduler, not the L1 hit path, dominates.
func benchProfile() trace.Profile {
	p, ok := trace.ByName("mcf")
	if !ok {
		panic("missing mcf profile")
	}
	return p
}

// benchRunCores measures the scheduler at a given core count: one short
// trace per core, OOO issue so several misses are in flight per core.
func benchRunCores(b *testing.B, cores int) {
	p := benchProfile()
	const refs = 2000
	traces := make([][]trace.Access, cores)
	for i := range traces {
		traces[i] = p.MustGenerate(refs, uint64(i)*1000003+7)
	}
	cfg := O3()
	cfg.Cores = cores
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg, traces, constMemory{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCores4(b *testing.B)  { benchRunCores(b, 4) }
func BenchmarkRunCores16(b *testing.B) { benchRunCores(b, 16) }
func BenchmarkRunCores64(b *testing.B) { benchRunCores(b, 64) }
