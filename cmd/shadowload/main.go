// Command shadowload drives a running shadowd with a service-shaped
// workload: Zipf-distributed key popularity and a configurable read/write
// mix, from many concurrent workers. Each worker owns a disjoint key shard
// and verifies read-your-writes on every GET — any mismatch, unexpected
// status or transport error fails the run (exit code 1), which is what the
// CI smoke job leans on.
//
//	shadowload -addr localhost:8080 -n 10000 -workers 8 -read 0.7
//
// It reports sustained req/s and client-side p50/p99, then fetches the
// server's /statsz for the service-side histogram digests.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"shadowblock/internal/metrics"
)

type workerResult struct {
	ops      int
	reads    int
	writes   int
	deletes  int
	failures []string
	lat      *metrics.Histogram // wall-clock ns per op
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "shadowd address")
		n        = flag.Int("n", 10000, "total requests")
		workers  = flag.Int("workers", 8, "concurrent workers (each owns a disjoint key shard)")
		keys     = flag.Int("keys", 512, "total key universe")
		zipfS    = flag.Float64("zipf", 1.2, "Zipf skew parameter s (>1; higher = hotter head)")
		readFrac = flag.Float64("read", 0.7, "fraction of GETs (rest PUTs, with occasional DELETEs)")
		vmax     = flag.Int("vmax", 40, "max value bytes")
		seed     = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()
	// rand.NewZipf returns nil for s <= 1, a negative -vmax cannot cut a
	// value, and n < workers leaves every worker with no op to verify.
	if *workers < 1 || *keys < *workers || *n < *workers || *zipfS <= 1 || *vmax < 0 {
		log.Fatal("shadowload: need workers >= 1, keys >= workers, n >= workers, zipf > 1, vmax >= 0")
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *workers}}
	base := fmt.Sprintf("http://%s", *addr)
	if err := waitReady(client, base, 5*time.Second); err != nil {
		log.Fatalf("shadowload: %v", err)
	}

	perWorker := *n / *workers
	shard := *keys / *workers
	results := make([]workerResult, *workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runWorker(client, base, workerParams{
				id: w, ops: perWorker,
				firstKey: w * shard, keySpan: shard,
				zipfS: *zipfS, readFrac: *readFrac, vmax: *vmax,
				seed: *seed + int64(w)*7919,
			})
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := workerResult{lat: metrics.NewHistogram()}
	var failures []string
	for _, r := range results {
		total.ops += r.ops
		total.reads += r.reads
		total.writes += r.writes
		total.deletes += r.deletes
		total.lat.Merge(r.lat)
		failures = append(failures, r.failures...)
	}

	sum := total.lat.Summary()
	fmt.Printf("shadowload: %d ops (%d GET / %d PUT / %d DELETE) in %v = %.0f req/s\n",
		total.ops, total.reads, total.writes, total.deletes, elapsed.Round(time.Millisecond),
		float64(total.ops)/elapsed.Seconds())
	fmt.Printf("client wall latency: p50 %s p99 %s max %s\n",
		time.Duration(sum.P50), time.Duration(sum.P99), time.Duration(sum.Max))

	if body, err := fetch(client, base+"/statsz"); err == nil {
		fmt.Printf("server /statsz:\n%s\n", body)
	} else {
		fmt.Printf("server /statsz unavailable: %v\n", err)
	}

	if len(failures) > 0 {
		max := len(failures)
		if max > 20 {
			max = 20
		}
		for _, f := range failures[:max] {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		log.Fatalf("shadowload: %d failures out of %d ops", len(failures), total.ops)
	}
	fmt.Println("all responses verified: read-your-writes held on every GET")
}

type workerParams struct {
	id, ops           int
	firstKey, keySpan int
	zipfS, readFrac   float64
	vmax              int
	seed              int64
}

// runWorker issues ops requests over its own key shard, tracking the value
// it last wrote per key so every GET is verifiable.
func runWorker(client *http.Client, base string, p workerParams) workerResult {
	r := rand.New(rand.NewSource(p.seed))
	zipf := rand.NewZipf(r, p.zipfS, 1, uint64(p.keySpan-1))
	expect := make(map[int][]byte)
	res := workerResult{lat: metrics.NewHistogram()}

	fail := func(format string, args ...any) {
		res.failures = append(res.failures, fmt.Sprintf("worker %d: ", p.id)+fmt.Sprintf(format, args...))
	}

	for i := 0; i < p.ops; i++ {
		key := p.firstKey + int(zipf.Uint64())
		url := fmt.Sprintf("%s/kv/key-%d", base, key)
		roll := r.Float64()
		t0 := time.Now()
		switch {
		case roll < p.readFrac:
			res.reads++
			resp, err := client.Get(url)
			if err != nil {
				fail("GET key-%d: %v", key, err)
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want, written := expect[key]
			switch {
			case written && resp.StatusCode != http.StatusOK:
				fail("GET key-%d: status %d, want 200", key, resp.StatusCode)
			case written && !bytes.Equal(body, want):
				fail("GET key-%d: %q, want %q (read-your-writes violated)", key, body, want)
			case !written && resp.StatusCode != http.StatusNotFound:
				fail("GET key-%d: status %d for a never-written key, want 404", key, resp.StatusCode)
			}
		case roll < p.readFrac+0.02 && len(expect) > 0:
			res.deletes++
			req, _ := http.NewRequest(http.MethodDelete, url, nil)
			resp, err := client.Do(req)
			if err != nil {
				fail("DELETE key-%d: %v", key, err)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if _, written := expect[key]; written {
				if resp.StatusCode != http.StatusNoContent {
					fail("DELETE key-%d: status %d, want 204", key, resp.StatusCode)
				}
				delete(expect, key)
			} else if resp.StatusCode != http.StatusNotFound {
				fail("DELETE key-%d: status %d for an absent key, want 404", key, resp.StatusCode)
			}
		default:
			res.writes++
			// Trailing NUL on every third write exercises the framing fix.
			v := []byte(fmt.Sprintf("w%d-k%d-i%d", p.id, key, i))
			if i%3 == 0 {
				v = append(v, 0)
			}
			if len(v) > p.vmax {
				v = v[:p.vmax]
			}
			req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(v))
			resp, err := client.Do(req)
			if err != nil {
				fail("PUT key-%d: %v", key, err)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				fail("PUT key-%d: status %d, want 204", key, resp.StatusCode)
				continue
			}
			expect[key] = v
		}
		res.lat.Record(time.Since(t0).Nanoseconds())
		res.ops++
	}
	return res
}

// waitReady polls /healthz until the server answers (it may still be
// binding when the driver script starts us).
func waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %v: %v", base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fetch GETs a URL and returns its body.
func fetch(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
