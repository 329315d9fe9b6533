package metrics

import (
	"encoding/json"
	"testing"
)

func TestCollectorLiveBeforePublish(t *testing.T) {
	var c *Collector
	if c.Live() != nil {
		t.Fatal("nil collector returned a report")
	}
	c.EnableLive()       // no-op on the disabled collector
	c.Publish(1, "path") // likewise
	c = New(Options{})
	if c.Live() != nil {
		t.Fatal("fresh collector returned a report before any publish")
	}
}

// TestPublishGatedOnEnableLive: Publish builds nothing for a collector no
// one reads, and installs a report once EnableLive has turned it on.
func TestPublishGatedOnEnableLive(t *testing.T) {
	c := New(Options{Ledger: true})
	c.Count("queue.issued", 1)
	c.Publish(2048, "ring")
	if c.Live() != nil {
		t.Fatal("Publish built a report for a collector nothing serves")
	}
	c.EnableLive()
	c.Publish(4096, "ring")
	r := c.Live()
	if r == nil {
		t.Fatal("Publish installed no report after EnableLive")
	}
	if r.Schema != Schema || r.Cycles != 4096 || r.Engine != "ring" || r.Counters["queue.issued"] != 1 {
		t.Fatalf("live report mangled: %+v", r)
	}
}

// TestPublishedReportSharesNothing: the published report is a copy, so the
// collector's later writes never reach it.
func TestPublishedReportSharesNothing(t *testing.T) {
	c := New(Options{Ledger: true})
	c.EnableLive()
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
