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
	c.PublishLive(&LiveSnapshot{Cycles: 4096, Engine: "ring", QueueDepth: 2})

	s, err := ServeDebug("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("Addr() = %q did not resolve the ephemeral port", addr)
	}

	code, body := get(t, fmt.Sprintf("http://%s/debug/shadow", addr))
	if code != http.StatusOK {
		t.Fatalf("/debug/shadow status %d", code)
	}
	var snap LiveSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/shadow is not JSON: %v\n%s", err, body)
	}
	if snap.Cycles != 4096 || snap.Engine != "ring" || snap.QueueDepth != 2 || snap.Requests != 1 {
		t.Fatalf("snapshot mangled: %+v", snap)
	}
	if snap.Ledger == nil || snap.Ledger.CompleteCycles != 100 {
		t.Fatalf("snapshot ledger mangled: %+v", snap.Ledger)
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

func TestServeDebugNilCollector(t *testing.T) {
	s, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, fmt.Sprintf("http://%s/debug/shadow", s.Addr()))
	if code != http.StatusOK {
		t.Fatalf("/debug/shadow status %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("placeholder body is not JSON: %v", err)
	}
	if enabled, _ := m["enabled"].(bool); enabled {
		t.Fatalf("nil collector reported enabled: %s", body)
	}
}

func TestCollectorLiveBeforePublish(t *testing.T) {
	var c *Collector
	if c.Live() != nil {
		t.Fatal("nil collector returned a snapshot")
	}
	c = New(Options{})
	if c.Live() != nil {
		t.Fatal("fresh collector returned a snapshot before any publish")
	}
}
