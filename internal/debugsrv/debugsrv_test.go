package debugsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"shadowblock/internal/metrics"
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

func TestServeBindsEphemeralPortAndCloses(t *testing.T) {
	c := metrics.New(metrics.Options{Ledger: true})
	c.ReqForward.Record(100)
	c.Ledger.RecordAccess(0, 0, 100, 0, 100)
	c.Count("queue.issued", 1)
	c.Observe("queue_depth", 4000, 2)
	c.Publish(2048, "ring")
	if c.Live() != nil {
		t.Fatal("Publish built a report with no debug server to read it")
	}

	s, err := Serve("127.0.0.1:0", c)
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
	var r metrics.Report
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("/debug/shadow is not a report: %v\n%s", err, body)
	}
	if r.Schema != metrics.Schema || r.Cycles != 4096 || r.Engine != "ring" ||
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
	s2, err := Serve(addr, nil)
	if err != nil {
		t.Fatalf("rebinding %s after Close: %v", addr, err)
	}
	defer s2.Close()
}

// TestServeUnpublished: /debug/shadow answers 503 while there is no report
// to serve, both for no collector and for one that has not published yet.
func TestServeUnpublished(t *testing.T) {
	for _, c := range []*metrics.Collector{nil, metrics.New(metrics.Options{})} {
		s, err := Serve("127.0.0.1:0", c)
		if err != nil {
			t.Fatal(err)
		}
		code, body := get(t, fmt.Sprintf("http://%s/debug/shadow", s.Addr()))
		s.Close()
		if code != http.StatusServiceUnavailable {
			t.Fatalf("/debug/shadow status %d before any report, body %s", code, body)
		}
	}
}
