package core

import (
	"errors"
	"testing"

	"dircache/internal/audit"
	"dircache/internal/fsapi"
)

// traceAuditFixture is auditFixture with every walk traced and the
// flight recorder's slow threshold at zero, so each completed walk is
// flight-recorded and the trace/journal cross-check has spans to chew.
func traceAuditFixture(t *testing.T) (aud *audit.Auditor, c *Core, fire func()) {
	t.Helper()
	k, c, root := auditFixture(t)
	tel := k.Telemetry()
	tel.SetTraceSample(1)
	tel.SetSlowThreshold("", 0)
	warmShortcutAncestors(t, root)
	fire = func() {
		// A miss below the published, PCC-covered ancestor resumes the
		// slow walk from it: the traced walk gains a shortcut_resume span
		// event and the journal a shortcut event carrying its trace ID.
		s0 := c.Stats()
		if _, err := root.Stat("/secret/team/deep/nope"); !errors.Is(err, fsapi.ENOENT) {
			t.Fatalf("want ENOENT, got %v", err)
		}
		if c.Stats().ShortcutResumes == s0.ShortcutResumes {
			t.Fatal("miss under a published, PCC-covered ancestor did not resume")
		}
	}
	return audit.New(k, c), c, fire
}

// TestAuditTraceJournalShortcutAgree drives a healthy traced resume and
// requires the trace_journal_shortcut cross-check to actually compare
// the flight-recorded span against the journal — and stay quiet.
func TestAuditTraceJournalShortcutAgree(t *testing.T) {
	aud, _, fire := traceAuditFixture(t)
	fire()
	r := aud.RunUntilValid(5)
	if !r.Valid {
		t.Fatalf("audit never went valid: %s", r.Summary())
	}
	if r.Checked["trace_journal_shortcut"] == 0 {
		t.Fatal("cross-check never compared a flight-recorded resume span to the journal")
	}
	for _, f := range r.Findings {
		if f.Check == "trace_journal_shortcut" {
			t.Fatalf("healthy traced resume flagged: %+v", f)
		}
	}
}

// TestAuditCatchesSkewedShortcutTraceDepth injects the bug the
// trace_journal_shortcut cross-check exists for: the journal records a
// different resume depth than the span for the same trace ID — two
// observability planes telling different stories about one walk. The
// auditor must flag it.
func TestAuditCatchesSkewedShortcutTraceDepth(t *testing.T) {
	aud, c, fire := traceAuditFixture(t)

	c.testSkewShortcutTraceDepth = true
	fire()
	c.testSkewShortcutTraceDepth = false

	r := aud.RunUntilValid(5)
	if !r.Valid {
		t.Fatalf("audit never went valid: %s", r.Summary())
	}
	caught := 0
	for _, f := range r.Findings {
		if f.Check == "trace_journal_shortcut" {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("auditor missed the span/journal depth skew; findings: %+v", r.Findings)
	}
}
