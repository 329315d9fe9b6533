package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestDecodeReportRoundTripsV3(t *testing.T) {
	c := New(Options{Ledger: true})
	c.ReqForward.Record(100)
	c.Observe("queue_depth", 50, 3)
	c.Count("queue.issued", 7)
	c.Ledger.RecordAccess(10, 20, 60, 10, 100)
	c.Ledger.RecordCoalesced(40)
	c.Ledger.AddResource(ResWritebackDrain, 25)
	rep := c.Report(5000, map[string]string{"bench": "x"})
	if rep.Schema != Schema {
		t.Fatalf("fresh report schema = %q, want %q", rep.Schema, Schema)
	}
	rep.Engine = "ring" // additive v3 field, set by the sim layer
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(&buf)
	if err != nil {
		t.Fatalf("v3 round trip rejected: %v", err)
	}
	if back.Engine != "ring" {
		t.Fatalf("engine = %q after round trip, want ring", back.Engine)
	}
	if back.Counters["queue.issued"] != 7 {
		t.Fatalf("queue.issued = %d, want 7", back.Counters["queue.issued"])
	}
	if len(back.Series) != 1 || back.Series[0].Name != "queue_depth" {
		t.Fatalf("series mangled: %+v", back.Series)
	}
	if back.Ledger == nil {
		t.Fatal("ledger section missing after round trip")
	}
	if back.Ledger.Requests != 1 || back.Ledger.Coalesced != 1 || back.Ledger.Violations != 0 {
		t.Fatalf("ledger digest mangled: %+v", back.Ledger)
	}
	if back.Ledger.ForwardCycles != 90+40 || back.Ledger.CompleteCycles != 100 {
		t.Fatalf("ledger totals mangled: %+v", back.Ledger)
	}
	var path *StageEntry
	for i := range back.Ledger.Stages {
		if back.Ledger.Stages[i].Stage == "path_read" {
			path = &back.Ledger.Stages[i]
		}
	}
	if path == nil || path.Cycles != 60 {
		t.Fatalf("path_read stage mangled: %+v", back.Ledger.Stages)
	}
	if len(back.Ledger.Resources) != 1 || back.Ledger.Resources[0].Resource != "writeback_drain" {
		t.Fatalf("resources mangled: %+v", back.Ledger.Resources)
	}
}

func TestDecodeReportRejectsUnknownSchema(t *testing.T) {
	if _, err := DecodeReport(strings.NewReader(`{"schema": "shadowblock-metrics/v99"}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}
