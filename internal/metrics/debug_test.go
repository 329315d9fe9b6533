package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServeDebugBindsEphemeralPortAndCloses(t *testing.T) {
	c := New(Options{Ledger: true})
	c.ReqForward.Record(100)
	c.Ledger.RecordAccess(0, 0, 100, 0, 100)
	c.Count("queue.issued", 1)
	c.Observe("queue_depth", 4000, 2)
	c.Publish(2048, "ring")
	if c.Live() != nil {
		t.Fatal("Publish built a report with no debug server to read it")
	}

	s, err := ServeDebug("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	c.Publish(4096, "ring")
	addr := s.Addr()
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("Addr() = %q did not resolve the ephemeral port", addr)
	}

	code, body := get(t, fmt.Sprintf("http://%s/debug/shadow", addr))
	if code != http.StatusOK {
		t.Fatalf("/debug/shadow status %d", code)
	}
	var r Report
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("/debug/shadow is not a report: %v\n%s", err, body)
	}
	if r.Schema != Schema || r.Cycles != 4096 || r.Engine != "ring" ||
		r.Latency["request_forward"].Count != 1 || r.Counters["queue.issued"] != 1 ||
		len(r.Series) != 1 || r.Series[0].Name != "queue_depth" || r.Series[0].Points[0].Max != 2 {
		t.Fatalf("report mangled: %+v", r)
	}
	if r.Ledger == nil || r.Ledger.CompleteCycles != 100 {
		t.Fatalf("report ledger mangled: %+v", r.Ledger)
	}

	if code, _ := get(t, fmt.Sprintf("http://%s/debug/vars", addr)); code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	if code, _ := get(t, fmt.Sprintf("http://%s/debug/pprof/", addr)); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/debug/shadow", addr)); err == nil {
		t.Fatal("server still serving after Close")
	}

	// The listener is released: the same address can be bound again.
	s2, err := ServeDebug(addr, nil)
	if err != nil {
		t.Fatalf("rebinding %s after Close: %v", addr, err)
	}
	defer s2.Close()
}

// shadowUnavailable asserts that /debug/shadow, served for c, has no
// report yet and says so with a 503.
func shadowUnavailable(t *testing.T, c *Collector) {
	t.Helper()
	s, err := ServeDebug("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, body := get(t, fmt.Sprintf("http://%s/debug/shadow", s.Addr())); code != http.StatusServiceUnavailable {
		t.Fatalf("/debug/shadow status %d before any report, body %s", code, body)
	}
}

func TestServeDebugNilCollector(t *testing.T) {
	shadowUnavailable(t, nil)
}

func TestCollectorLiveBeforePublish(t *testing.T) {
	var c *Collector
	if c.Live() != nil {
		t.Fatal("nil collector returned a report")
	}
	c.Publish(1, "path") // no-op on the disabled collector
	c = New(Options{})
	if c.Live() != nil {
		t.Fatal("fresh collector returned a report before any publish")
	}
	shadowUnavailable(t, c)
}

// TestPublishedReportSharesNothing: the published report is a copy, so the
// collector's later writes never reach it.
func TestPublishedReportSharesNothing(t *testing.T) {
	c := New(Options{Ledger: true})
	s, err := ServeDebug("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c.ReqForward.Record(100)
	c.Ledger.RecordAccess(0, 0, 100, 0, 100)
	c.Count("queue.issued", 1)
	c.Observe("queue_depth", 0, 1)
	c.Publish(10, "path")
	r := c.Live()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	c.ReqForward.Record(5000)
	c.Ledger.RecordAccess(0, 0, 7, 0, 7)
	c.Count("queue.issued", 1)
	c.Observe("queue_depth", 0, 9)
	if got, _ := json.Marshal(r); string(got) != string(want) {
		t.Fatalf("published report changed after the collector moved on:\n%s\n%s", want, got)
	}
}
