package metrics

import "testing"

func TestLedgerConservationArithmetic(t *testing.T) {
	var l Ledger
	l.RecordAccess(5, 10, 80, 15, 110)
	l.RecordAccess(0, 0, 40, 0, 40)
	r := l.Report()
	if r.Violations != 0 {
		t.Fatalf("conserving records produced %d violations", r.Violations)
	}
	if got := l.StageCycles(StageQueueWait) + l.StageCycles(StagePosmapWalk) +
		l.StageCycles(StagePathRead) + l.StageCycles(StageEvictDrain); got != r.CompleteCycles {
		t.Fatalf("stage cycles %d do not sum to complete cycles %d", got, r.CompleteCycles)
	}
	if r.ForwardCycles != 110-15+40 {
		t.Fatalf("forward cycles = %d, want %d", r.ForwardCycles, 110-15+40)
	}

	// A record that does not telescope must be flagged, not absorbed.
	l.RecordAccess(1, 1, 1, 1, 5)
	if v := l.Report().Violations; v != 1 {
		t.Fatalf("non-conserving record produced %d violations, want 1", v)
	}
}

func TestLedgerCoalescedAndResources(t *testing.T) {
	var l Ledger
	l.RecordCoalesced(30)
	l.RecordCoalesced(12)
	l.AddResource(ResWritebackDrain, 7)
	l.AddResource(ResWritebackDrain, 3)
	r := l.Report()
	if r.Requests != 0 || r.Coalesced != 2 {
		t.Fatalf("coalesced records counted as primaries: %d primaries, %d coalesced", r.Requests, r.Coalesced)
	}
	if l.StageCycles(StageCoalesce) != 42 || r.ForwardCycles != 42 {
		t.Fatalf("coalesce accounting wrong: stage %d forward %d", l.StageCycles(StageCoalesce), r.ForwardCycles)
	}
	if got := l.resCycles[ResWritebackDrain]; got != 10 {
		t.Fatalf("resource cycles = %d, want 10", got)
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.RecordAccess(1, 2, 3, 4, 10)
	l.RecordCoalesced(5)
	l.AddResource(ResWritebackDrain, 9)
	if l.Report() != nil || l.StageCycles(StageQueueWait) != 0 {
		t.Fatal("nil ledger accumulated state")
	}
}

func TestLedgerReportShape(t *testing.T) {
	var l Ledger
	if l.Report() != nil {
		t.Fatal("empty ledger produced a report")
	}
	l.RecordAccess(0, 10, 90, 0, 100)
	r := l.Report()
	if r == nil || len(r.Stages) != int(NumStages) {
		t.Fatalf("report has %d stages, want %d", len(r.Stages), NumStages)
	}
	for _, s := range r.Stages {
		if s.Stage == "unknown" {
			t.Fatalf("unnamed stage in report: %+v", r.Stages)
		}
	}
	if len(r.Resources) != 0 {
		t.Fatalf("untouched resources exported: %+v", r.Resources)
	}
}

func TestLedgerStageNames(t *testing.T) {
	var l Ledger
	l.SetStageNames(map[Stage]string{StagePathRead: "ring_read", StageEvictDrain: ""})
	if got := l.StageName(StagePathRead); got != "ring_read" {
		t.Fatalf("StageName(StagePathRead) = %q, want ring_read", got)
	}
	// Empty overrides are skipped; unnamed stages keep their defaults.
	if got := l.StageName(StageEvictDrain); got != StageEvictDrain.String() {
		t.Fatalf("StageName(StageEvictDrain) = %q, want the default %q", got, StageEvictDrain)
	}
	if got := l.StageName(StageQueueWait); got != StageQueueWait.String() {
		t.Fatalf("StageName(StageQueueWait) = %q, want the default %q", got, StageQueueWait)
	}
	l.RecordAccess(5, 0, 80, 15, 100)
	r := l.Report()
	if r.Stage("ring_read").Cycles != 80 {
		t.Fatalf("renamed stage missing from report: %+v", r.Stages)
	}
	if r.Stage("path_read").Count != 0 {
		t.Fatalf("default name survived the rename: %+v", r.Stages)
	}
	// nil maps are a no-op, not a wipe.
	l.SetStageNames(nil)
	if got := l.StageName(StagePathRead); got != "ring_read" {
		t.Fatalf("nil SetStageNames cleared overrides: %q", got)
	}
}
