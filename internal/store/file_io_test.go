package store_test

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"shadowblock/internal/crypt"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
	"shadowblock/internal/store"
	"shadowblock/internal/tree"
)

// ioCalls returns the calling thread's read and write syscall counts.
func ioCalls(t *testing.T) (n [2]int) {
	t.Helper()
	raw, err := os.ReadFile("/proc/thread-self/io")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		k, v, _ := bytes.Cut(sc.Bytes(), []byte(": "))
		switch string(k) {
		case "syscr":
			n[0], _ = strconv.Atoi(string(v))
		case "syscw":
			n[1], _ = strconv.Atoi(string(v))
		}
	}
	return n
}

// pathIO runs requests seeded requests on a fresh file-backed L=14
// functional ORAM and returns, per request, the read and write syscalls
// the calling thread made and the path reads and writes the engine
// reported. It fails if a request returns with the bottom band's buffer
// dirty.
func pathIO(t *testing.T, requests int) (calls, paths [][2]int) {
	cfg := oram.Default()
	cfg.L = 14
	cfg.Functional = true
	geo, err := tree.NewGeometry(cfg.L, cfg.Z)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := store.NewFile(filepath.Join(t.TempDir(), "tree.dat"), geo.NumBuckets(), cfg.Z, crypt.NonceSize+cfg.BlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	cfg.Store = fb
	c, err := oram.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cur [2]int
	c.SetObserver(func(e oram.Event) {
		if e.Kind == oram.EvPathRead {
			cur[0]++
		} else {
			cur[1]++
		}
	})
	a, b := ioCalls(t), ioCalls(t)
	overhead := [2]int{b[0] - a[0], b[1] - a[1]} // taking a snapshot
	r := rng.NewXoshiro(3)
	now := int64(0)
	for i := 0; i < requests; i++ {
		cur = [2]int{}
		a := ioCalls(t)
		out := c.Request(now, uint32(r.Uint64n(uint64(c.NumDataBlocks()))), i%3 == 0)
		b := ioCalls(t)
		now = out.Done + 1
		calls = append(calls, [2]int{b[0] - a[0] - overhead[0], b[1] - a[1] - overhead[1]})
		paths = append(paths, cur)
		if fb.Dirty() {
			t.Fatalf("request %d left the bottom band dirty", i)
		}
	}
	return calls, paths
}

// TestFilePathIO pins the file backend's syscall budget on the functional
// ORAM at L=14 with the default geometry: every path read costs at most one
// pread and every path write at most one pwrite, and the bottom band's
// buffer is clean once a request returns.
//
// The counts are the test thread's own (the goroutine is locked to it).
// The runtime may still do I/O on this thread now and then — waking the
// network poller when a syscall overstays and loses its processor — so the
// same request sequence runs three times on fresh instances, and each
// request is charged the fewest syscalls any run saw.
func TestFilePathIO(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("syscall counts come from /proc/thread-self/io")
	}
	if _, err := os.Stat("/proc/thread-self/io"); err != nil {
		t.Skip("no /proc/thread-self/io")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// 5 × (4 + 16 + 64) = 420-byte buckets: a 4-level subtree is 6300 B,
	// a 5-level one 13020 B, so the bottom band is the deepest 4 of the 15
	// levels and the 11 above it are resident.
	const requests = 300
	calls, paths := pathIO(t, requests)
	for run := 1; run < 3; run++ {
		again, againPaths := pathIO(t, requests)
		for i := range calls {
			if againPaths[i] != paths[i] {
				t.Fatalf("request %d: paths %v in run %d, %v in run 0", i, againPaths[i], run, paths[i])
			}
			calls[i] = [2]int{min(calls[i][0], again[i][0]), min(calls[i][1], again[i][1])}
		}
	}
	var sum, total [2]int
	for i := range calls {
		for d, what := range [2]string{"preads", "pwrites"} {
			if calls[i][d] > paths[i][d] {
				t.Fatalf("request %d: %d %s for %d paths, want at most one per path", i, calls[i][d], what, paths[i][d])
			}
			sum[d] += calls[i][d]
			total[d] += paths[i][d]
		}
	}
	t.Logf("%d requests: %.2f preads per path read, %.2f pwrites per path write; %.2f preads + %.2f pwrites per request",
		requests, float64(sum[0])/float64(total[0]), float64(sum[1])/float64(total[1]),
		float64(sum[0])/requests, float64(sum[1])/requests)
}
