// Package shadowblock is a from-scratch reproduction of "Shadow Block:
// Accelerating ORAM Accesses with Data Duplication" (MICRO 2018): a
// Tiny/RAW Path ORAM simulator with a recursive position map, a DDR3
// timing model, trace-driven CPU models, and the paper's shadow-block
// duplication engine (RD-Dup, HD-Dup, static and dynamic partitioning).
//
// The ORAM request path is one staged engine (internal/oram: posmap walk,
// path read, forward, stash update, evict — one file per stage, one stage
// sequence for the serial, pipelined, multi-channel and decoupled-writeback
// configurations alike) behind an MSHR-style multi-requestor queue that
// lets N trace-driven cores share a single controller.
//
// See README.md for a tour (the "Architecture" section diagrams the
// engine stages and the front end), DESIGN.md for the system inventory
// and the experiment index, and EXPERIMENTS.md for paper-vs-measured
// results. The root-level benchmarks (bench_test.go) regenerate each
// figure at reduced scale; cmd/paperbench regenerates them at full scale.
package shadowblock
