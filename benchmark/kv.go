package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"shadowblock/internal/core"
	"shadowblock/internal/crypt"
	"shadowblock/internal/kv"
	"shadowblock/internal/oram"
	"shadowblock/internal/store"
	"shadowblock/internal/tree"
)

// kvClient is the service as a caller sees it; the embedded composition and
// the HTTP client both satisfy it, so one load generator and one checker
// drive both.
type kvClient interface {
	get(key string) (value []byte, found bool, err error)
	put(key string, value []byte) error
	del(key string) (found bool, err error)
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
)

func (o opKind) String() string { return [...]string{"GET", "PUT", "DELETE"}[o] }

// opGen produces one caller's operation sequence from a seed: the same seed
// gives the same keys, mix and values. Each caller owns a disjoint key
// shard, so its own writes are the only writes it can observe and every
// read is checkable.
type opGen struct {
	r        *rand.Rand
	zipf     *rand.Zipf // nil = uniform
	id       int
	first    int // first key of the shard
	span     int // keys in the shard
	readFrac float64
	delFrac  float64
	i        int

	keys    []string // shard's key names, precomputed
	expect  [][]byte // last value written per key
	present []bool
	userB   uint64 // value bytes written
}

const maxValueBytes = 40

func newOpGen(w workload, seed uint64, id, first, span int) *opGen {
	g := &opGen{
		r:        rand.New(rand.NewSource(int64(seed)*7919 + int64(id))),
		id:       id,
		first:    first,
		span:     span,
		readFrac: w.ReadFrac,
		delFrac:  w.DeleteFrac,
		keys:     make([]string, span),
		expect:   make([][]byte, span),
		present:  make([]bool, span),
	}
	if w.Zipf > 0 && span > 1 {
		g.zipf = rand.NewZipf(g.r, w.Zipf, 1, uint64(span-1))
	}
	for k := range g.keys {
		g.keys[k] = "key-" + strconv.Itoa(first+k)
	}
	return g
}

// value builds the i-th written value for key k: at most maxValueBytes,
// every third one ending in NUL (the framing must round-trip those).
func (g *opGen) value(k int) []byte {
	v := make([]byte, 0, maxValueBytes)
	v = append(v, 'w')
	v = strconv.AppendInt(v, int64(g.id), 10)
	v = append(v, "-k"...)
	v = strconv.AppendInt(v, int64(g.first+k), 10)
	v = append(v, "-i"...)
	v = strconv.AppendInt(v, int64(g.i), 10)
	if g.i%3 == 0 {
		v = append(v, 0)
	}
	if len(v) > maxValueBytes {
		v = v[:maxValueBytes]
	}
	return v
}

func (g *opGen) pick() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.r.Intn(g.span)
}

// step issues the caller's next operation against c and checks the reply
// against what this caller last wrote. It returns the time the call took
// and, when the reply was wrong, why.
func (g *opGen) step(c kvClient, tr *tracer) (ns int64, failure string) {
	k := g.pick()
	roll := g.r.Float64()
	key := g.keys[k]
	g.i++
	op := opPut
	var v []byte
	switch {
	case roll < g.readFrac:
		op = opGet
	case roll < g.readFrac+g.delFrac:
		op = opDelete
	default:
		v = g.value(k)
	}

	var got []byte
	var found bool
	var err error
	tr.nextRequest()
	t0 := time.Now()
	tr.begin(layHarness, false)
	switch op {
	case opGet:
		got, found, err = c.get(key)
	case opDelete:
		found, err = c.del(key)
	default:
		err = c.put(key, v)
	}
	tr.end()
	ns = time.Since(t0).Nanoseconds()

	switch {
	case err != nil:
		return ns, fmt.Sprintf("%s %s: %v", op, key, err)
	case op == opPut:
		g.present[k], g.expect[k] = true, v
		g.userB += uint64(len(v))
	case found != g.present[k]:
		failure = fmt.Sprintf("%s %s: found=%v, want %v", op, key, found, g.present[k])
	case op == opGet && found && !bytes.Equal(got, g.expect[k]):
		failure = fmt.Sprintf("GET %s: %q, want %q (read-your-writes violated)", key, got, g.expect[k])
	}
	if op == opDelete {
		g.present[k], g.expect[k] = false, nil
	}
	return ns, failure
}

// prefill writes every key of the shard once, so the measured phase runs
// against a populated store. Part of set-up.
func (g *opGen) prefill(c kvClient) error {
	for k := range g.keys {
		v := g.value(k)
		if err := c.put(g.keys[k], v); err != nil {
			return fmt.Errorf("prefill %s: %w", g.keys[k], err)
		}
		g.present[k], g.expect[k] = true, v
	}
	g.userB = 0
	return nil
}

// run issues n operations, appending each one's latency to lat.
func (g *opGen) run(c kvClient, n int, tr *tracer, lat []int64, r *repResult) []int64 {
	for i := 0; i < n; i++ {
		ns, failure := g.step(c, tr)
		lat = append(lat, ns)
		if failure != "" {
			r.fail(1, "caller %d: %s", g.id, failure)
		}
	}
	return lat
}

// setLatencies sorts the raw samples and fills the exact percentiles.
func (r *repResult) setLatencies(lat []int64) {
	slices.Sort(lat)
	r.P50us = float64(percentile(lat, 0.50)) / 1e3
	r.P99us = float64(percentile(lat, 0.99)) / 1e3
	r.P999us = float64(percentile(lat, 0.999)) / 1e3
	r.Maxus = float64(percentile(lat, 1)) / 1e3
}

// embedKV is shadowd's serveOne composition used as a library, one caller,
// one operation per simulated presentation: the examples/securekv shape
// with the server's queue front end.
type embedKV struct {
	q   *oram.Queue
	dir *kv.Directory
	bb  int
	now int64
	tr  *tracer
}

func (e *embedKV) get(key string) ([]byte, bool, error) {
	e.tr.begin(layKVDir, false)
	addr, ok := e.dir.Lookup(key)
	e.tr.end()
	if !ok {
		return nil, false, nil
	}
	e.tr.begin(layORAMFunc, false)
	data, out := e.q.Read(e.now, 0, addr)
	e.tr.end()
	e.now = out.Done + 1
	e.tr.begin(layKVFrame, false)
	v, err := kv.DecodeValue(data)
	e.tr.end()
	return v, err == nil, err
}

func (e *embedKV) put(key string, value []byte) error {
	e.tr.begin(layKVFrame, false)
	blk, err := kv.EncodeValue(value, e.bb)
	e.tr.end()
	if err != nil {
		return err
	}
	e.tr.begin(layKVDir, false)
	addr, err := e.dir.Assign(key)
	e.tr.end()
	if err != nil {
		return err
	}
	return e.write(addr, blk)
}

func (e *embedKV) del(key string) (bool, error) {
	e.tr.begin(layKVDir, false)
	addr, ok := e.dir.Remove(key)
	e.tr.end()
	if !ok {
		return false, nil
	}
	// Scrub before the address is recycled, as the server does.
	e.tr.begin(layKVFrame, false)
	zero, err := kv.EncodeValue(nil, e.bb)
	e.tr.end()
	if err != nil {
		return false, err
	}
	return true, e.write(addr, zero)
}

func (e *embedKV) write(addr uint32, blk []byte) error {
	e.tr.begin(layORAMFunc, false)
	out, err := e.q.Write(e.now, 0, addr, blk)
	e.tr.end()
	if err != nil {
		return err
	}
	e.now = out.Done + 1
	return nil
}

// newBackend creates the workload's storage backend the way shadowd's
// buildBackend does.
func newBackend(w workload, cfg oram.Config, dir string) (store.Backend, tree.Geometry, error) {
	geo, err := tree.NewGeometry(cfg.L, cfg.Z)
	if err != nil {
		return nil, geo, err
	}
	switch w.Backend {
	case "mem":
		return store.NewMem(geo.NumBuckets(), cfg.Z), geo, nil
	case "file":
		b, err := store.NewFile(filepath.Join(dir, "tree.dat"), geo.NumBuckets(), cfg.Z, crypt.NonceSize+cfg.BlockBytes)
		return b, geo, err
	}
	return nil, geo, fmt.Errorf("unknown backend %q", w.Backend)
}

// runEmbed is one embedded-KV repetition in this process.
func runEmbed(w workload, spec repSpec, cl *cleanup) (repResult, error) {
	r := repResult{Ops: w.Ops, Layers: map[string]float64{}}
	dir, err := os.MkdirTemp(spec.TmpDir, "embed-")
	if err != nil {
		return r, err
	}
	cl.add(func() { os.RemoveAll(dir) })

	t0 := time.Now()
	cfg := oram.Default()
	cfg.L = w.L
	cfg.Functional = true
	back, geo, err := newBackend(w, cfg, dir)
	if err != nil {
		return r, err
	}
	cl.add(func() { back.Close() })
	var tb *tracedBackend
	cfg.Store = back
	if spec.Traced {
		tb = newTracedBackend(back, nil, geo.NumBuckets())
		cfg.Store = tb
	}
	ctrl, _, err := core.New(cfg, core.Dynamic(3))
	if err != nil {
		return r, err
	}
	c := &embedKV{q: oram.NewQueue(ctrl, 1), dir: kv.NewDirectory(ctrl.NumDataBlocks()), bb: ctrl.BlockBytes()}
	g := newOpGen(w, spec.Seed, 0, 0, w.Keys)
	if err := g.prefill(c); err != nil {
		return r, err
	}
	r.SetupS = time.Since(t0).Seconds()

	// Tracing starts with the measured phase: set-up's backend calls would
	// otherwise sit in the per-operation averages.
	var tr *tracer
	if spec.Traced {
		tr = newTracer(uint64(max(w.Ops/100, 1)), maxSpansPerRep)
		c.tr, tb.tr = tr, tr
		tb.bytesWritten, tb.sealedWrites = 0, 0
	}
	cyclesBefore := c.now
	lat := make([]int64, 0, w.Ops)
	m := startMeter()
	lat = g.run(c, w.Ops, tr, lat, &r)
	m.stop(&r)
	r.SimCycles = c.now - cyclesBefore

	st := ctrl.Stats()
	if st.Anomalies > 0 || st.StashOverflows > 0 {
		// The silent-loss guard: an overflow drops a real block and a later
		// read returns zeros with only these counters to show for it.
		r.fail(int(st.Anomalies+st.StashOverflows), "engine reports %d anomalies, %d stash overflows", st.Anomalies, st.StashOverflows)
	}
	r.setLatencies(lat)
	if tr != nil {
		embedLayers(&r, g, tr, tb, lat, back, geo)
		r.Layers["oram.anomalies"] = float64(st.Anomalies)
		r.Layers["oram.stash_overflows"] = float64(st.StashOverflows)
		r.Spans = tr.spans
	}
	return r, nil
}

// embedLayers turns the traced repetition's spans into per-layer metrics.
// lat is ascending (setLatencies sorted it).
func embedLayers(r *repResult, g *opGen, tr *tracer, tb *tracedBackend, lat []int64, back store.Backend, geo tree.Geometry) {
	tr.extrapolate(layStoreRead, layORAMFunc)
	tr.extrapolate(layStoreWrite, layORAMFunc)
	L := r.Layers
	ops := float64(r.Ops)
	wallNS := r.WallS * 1e9
	self := func(l layer) float64 { return float64(tr.self[l]) }

	storeNS := self(layStoreRead) + self(layStoreWrite)
	L["kv.frame_ns_per_op"] = self(layKVFrame) / ops
	L["kv.dir_ns_per_op"] = self(layKVDir) / ops
	L["oram.functional_self_ns_per_op"] = self(layORAMFunc) / ops
	L["store.read_calls_per_op"] = float64(tr.calls[layStoreRead]) / ops
	L["store.write_calls_per_op"] = float64(tr.calls[layStoreWrite]) / ops
	L["store.ns_per_op"] = storeNS / ops
	L["store.share"] = storeNS / wallNS
	if g.userB > 0 {
		L["store.bytes_written_per_user_byte"] = float64(tb.bytesWritten) / float64(g.userB)
	}

	// Heavy operations are the ones that carried an eviction's path
	// write-back: an order of magnitude above the read-only access.
	firstHeavy, _ := slices.BinarySearch(lat, 10*percentile(lat, 0.5)+1)
	L["oram.heavy_op_frac"] = float64(len(lat)-firstHeavy) / ops

	enc, dec, allocs := probeCrypt()
	L["crypt.probe_encrypt_ns"] = enc
	L["crypt.probe_decrypt_ns"] = dec
	L["crypt.probe_allocs_per_block"] = allocs
	// A lower bound: only the sealing of written slots is counted, not the
	// decryption of every slot a path read opens.
	L["crypt.est_share"] = float64(tb.sealedWrites) * enc / wallNS
	L["store.probe_read_ns"], L["store.probe_write_ns"] = probeStore(back, geo)

	layers := self(layKVFrame) + self(layKVDir) + self(layORAMFunc) + storeNS
	L["layers.sum_frac"] = layers / wallNS
	L["harness.self_ns_per_op"] = (wallNS - layers) / ops
	r.Shares = map[string]float64{
		"kv":              (self(layKVFrame) + self(layKVDir)) / wallNS,
		"oram.functional": self(layORAMFunc) / wallNS,
		"store":           storeNS / wallNS,
		"harness":         (wallNS - layers) / wallNS,
	}
}

// probeCrypt times crypt.Engine directly on a block the size the engine
// seals (one 64-byte payload), and counts allocations per sealed block.
func probeCrypt() (encNS, decNS, allocsPerBlock float64) {
	e, err := crypt.NewEngine(make([]byte, 16))
	if err != nil {
		return 0, 0, 0
	}
	plain := make([]byte, oram.Default().BlockBytes)
	const n = 100000
	var sealed []byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sealed = e.Encrypt(plain)
	}
	encNS = float64(time.Since(t0).Nanoseconds()) / n
	runtime.ReadMemStats(&after)
	allocsPerBlock = float64(after.Mallocs-before.Mallocs) / n
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := e.Decrypt(sealed); err != nil {
			return 0, 0, 0
		}
	}
	decNS = float64(time.Since(t0).Nanoseconds()) / n
	return encNS, decNS, allocsPerBlock
}

// probeStore times the backend's two calls on their own, on random buckets
// of the live store (each bucket is written back as read, so the tree the
// repetition built stays intact).
func probeStore(back store.Backend, geo tree.Geometry) (readNS, writeNS float64) {
	r := rand.New(rand.NewSource(1))
	const n = 20000
	var rd, wr time.Duration
	for i := 0; i < n; i++ {
		b := r.Intn(geo.NumBuckets())
		t0 := time.Now()
		slots, err := back.ReadBucket(b)
		t1 := time.Now()
		if err != nil {
			return 0, 0
		}
		if err := back.WriteBucket(b, slots); err != nil {
			return 0, 0
		}
		rd += t1.Sub(t0)
		wr += time.Since(t1)
	}
	return float64(rd.Nanoseconds()) / n, float64(wr.Nanoseconds()) / n
}
