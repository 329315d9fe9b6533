package trace

// The ten workload profiles, named after the SPEC CPU2006 benchmarks the
// paper evaluates (§VI-A). Parameters place each benchmark in the
// qualitative class the paper's results reflect:
//
//   - mcf, libquantum, omnetpp: memory-bound (short gaps), large
//     footprints — the paper's highest-slowdown trio (Fig. 11).
//   - namd: compute-bound with a heavily reused small hot core — its
//     data-request count drops sharply under HD-Dup (Fig. 9's noted
//     exception).
//   - hmmer: strongly phased gap behaviour (Fig. 6).
//   - libquantum, bzip2: streaming-dominated; h264ref mixes streams with a
//     hot set.
//   - mcf, astar, omnetpp: pointer-chasing (dependent misses, small
//     spatial runs).
//
// Calibration targets (see DESIGN.md §1): footprints far exceed the 1 MB
// LLC of Table I (16384 lines); hot cores are small (1–8K blocks) but
// churned out of the LLC by streaming traffic, so they recur at the ORAM —
// the population HD-Dup's Hot Address Cache can capture. Spatial runs give
// the PosMap Lookup Buffer its FreeCursive hit rate.
func SPEC2006() []Profile {
	return []Profile{
		{
			Name: "astar", HotConflict: true, HotNonTemporal: 0.6, FootprintBlocks: 256 << 10, HotBlocks: 256,
			HotFraction: 0.35, StreamFraction: 0.30, WriteFraction: 0.20,
			PointerChase: 0.85, MeanGap: 400, ZipfTheta: 0.80, SpatialRun: 2, StreamLoopBlocks: 24 << 10,
		},
		{
			Name: "bzip2", FootprintBlocks: 256 << 10, HotBlocks: 192,
			HotFraction: 0.30, StreamFraction: 0.60, WriteFraction: 0.35,
			PointerChase: 0.20, MeanGap: 450, ZipfTheta: 0.70, SpatialRun: 10, StreamLoopBlocks: 24 << 10,
		},
		{
			Name: "gcc", HotConflict: true, HotNonTemporal: 0.5, FootprintBlocks: 320 << 10, HotBlocks: 256,
			HotFraction: 0.35, StreamFraction: 0.30, WriteFraction: 0.30,
			PointerChase: 0.40, MeanGap: 350, ZipfTheta: 0.75, SpatialRun: 6, StreamLoopBlocks: 32 << 10,
			PhaseLen: 600, PhaseGapMult: 3.0,
		},
		{
			Name: "h264ref", HotConflict: true, HotNonTemporal: 0.6, FootprintBlocks: 192 << 10, HotBlocks: 256,
			HotFraction: 0.40, StreamFraction: 0.45, WriteFraction: 0.30,
			PointerChase: 0.20, MeanGap: 450, ZipfTheta: 0.80, SpatialRun: 8, StreamLoopBlocks: 16 << 10,
		},
		{
			Name: "hmmer", HotConflict: true, HotNonTemporal: 0.6, FootprintBlocks: 192 << 10, HotBlocks: 320,
			HotFraction: 0.50, StreamFraction: 0.25, WriteFraction: 0.25,
			PointerChase: 0.40, MeanGap: 300, ZipfTheta: 0.80, SpatialRun: 4, StreamLoopBlocks: 16 << 10,
			PhaseLen: 400, PhaseGapMult: 6.0,
		},
		{
			Name: "libquantum", FootprintBlocks: 512 << 10, HotBlocks: 128,
			HotFraction: 0.08, StreamFraction: 0.90, WriteFraction: 0.30,
			PointerChase: 0.00, MeanGap: 110, ZipfTheta: 0.50, SpatialRun: 16, StreamLoopBlocks: 32 << 10,
		},
		{
			Name: "mcf", HotConflict: true, HotNonTemporal: 0.7, FootprintBlocks: 512 << 10, HotBlocks: 384,
			HotFraction: 0.40, StreamFraction: 0.35, WriteFraction: 0.25,
			PointerChase: 0.80, MeanGap: 110, ZipfTheta: 0.80, SpatialRun: 2, StreamLoopBlocks: 32 << 10,
		},
		{
			Name: "namd", HotConflict: true, HotNonTemporal: 0.7, FootprintBlocks: 128 << 10, HotBlocks: 192,
			HotFraction: 0.55, StreamFraction: 0.30, WriteFraction: 0.20,
			PointerChase: 0.10, MeanGap: 1400, ZipfTheta: 0.85, SpatialRun: 8, StreamLoopBlocks: 12 << 10,
		},
		{
			Name: "omnetpp", HotConflict: true, HotNonTemporal: 0.6, FootprintBlocks: 384 << 10, HotBlocks: 320,
			HotFraction: 0.35, StreamFraction: 0.35, WriteFraction: 0.35,
			PointerChase: 0.50, MeanGap: 130, ZipfTheta: 0.80, SpatialRun: 3, StreamLoopBlocks: 24 << 10,
		},
		{
			Name: "sjeng", HotConflict: true, HotNonTemporal: 0.4, FootprintBlocks: 256 << 10, HotBlocks: 512,
			HotFraction: 0.25, StreamFraction: 0.30, WriteFraction: 0.25,
			PointerChase: 0.30, MeanGap: 500, ZipfTheta: 0.60, SpatialRun: 2, StreamLoopBlocks: 24 << 10,
		},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, bool) {
	for _, p := range SPEC2006() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names returns the benchmark names in evaluation order.
func Names() []string {
	ps := SPEC2006()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Scaled returns a copy of p with its footprint and hot set scaled by
// num/den, used when sweeping ORAM sizes (Fig. 19) so the footprint keeps
// the same proportion of the tree.
func (p Profile) Scaled(num, den int) Profile {
	q := p
	q.FootprintBlocks = max(1, p.FootprintBlocks*num/den)
	q.HotBlocks = min(q.FootprintBlocks, max(1, p.HotBlocks*num/den))
	if q.StreamLoopBlocks > 0 {
		q.StreamLoopBlocks = min(q.FootprintBlocks, max(1, p.StreamLoopBlocks*num/den))
	}
	return q
}
