package experiments

import (
	"fmt"

	"shadowblock/internal/cpu"
	"shadowblock/internal/oram"
	"shadowblock/internal/stats"
)

// tableI renders the processor and memory configuration actually used by
// the simulator, mirroring the paper's Table I (with the scaled default
// geometry noted). Its cells are prose, so it is a text result rather than
// a Table.
func tableI() text {
	o := oram.Default()
	c := cpu.InOrder()
	o3 := cpu.O3()
	t := stats.NewTable("parameter", "value")
	t.Row("core type (default)", fmt.Sprintf("in-order, %d core", c.Cores))
	t.Row("core type (O3)", fmt.Sprintf("out-of-order, %d cores, MLP %d", o3.Cores, o3.MLP))
	t.Row("L1 I/D", fmt.Sprintf("%dKB, %d-way, %d-cycle", c.L1Bytes>>10, c.L1Ways, c.L1Latency))
	t.Row("L2", fmt.Sprintf("%dMB, %d-way, %d-cycle", c.L2Bytes>>20, c.L2Ways, c.L2Latency))
	t.Row("block size", fmt.Sprintf("%dB", o.BlockBytes))
	t.Row("data ORAM", fmt.Sprintf("L=%d, %d blocks (paper: 4GB L=24; scaled 1/64)", o.L, o.NumDataBlocks()))
	t.Row("bucket slots Z", fmt.Sprintf("%d", o.Z))
	t.Row("eviction rate A", fmt.Sprintf("%d", o.A))
	t.Row("stash", fmt.Sprintf("%d blocks", o.StashCapacity))
	t.Row("PLB", fmt.Sprintf("%dKB, %d-way", oram.PLBBytes>>10, oram.PLBWays))
	t.Row("AES latency", fmt.Sprintf("%d cycles", oram.AESLatency))
	t.Row("timing protection rate", fmt.Sprintf("%d cycles", o.RequestRate))
	t.Row("DRAM", fmt.Sprintf("DDR3-1333, %d channels, %d banks/ch, %dB rows",
		o.DRAM.Channels, o.DRAM.BanksPerChannel, o.DRAM.RowBytes))
	return text("Table I: processor and memory configuration\n" + t.String())
}
