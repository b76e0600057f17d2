package exp

import (
	"strings"
	"testing"

	"eruca/internal/telemetry"
)

// TestAttributionTable runs the mechanism-attribution ladder on a tiny
// budget and checks the invariants the headline table promises: one row
// per rung, the baseline pinned to exactly 1.000 with an empty Δprev,
// no ERR cells on a healthy configuration, and mechanism columns that
// only light up on the rungs whose mechanism is switched on.
func TestAttributionTable(t *testing.T) {
	p := Params{Instrs: 10_000, Seed: 7, Mixes: []string{"mix0"}}
	r := NewRunner(p)
	tbl, err := r.Attribution(4, 0.1)
	if err != nil {
		t.Fatalf("Attribution: %v", err)
	}
	if got, want := len(tbl.Rows), len(attributionLadder(4)); got != want {
		t.Fatalf("rows = %d, want %d (one per ladder rung)", got, want)
	}
	for _, row := range tbl.Rows {
		for _, cell := range row {
			if cell == "ERR" {
				t.Fatalf("ERR cell in healthy attribution sweep: %v", row)
			}
		}
	}
	base := tbl.Rows[0]
	if base[1] != "1.000" {
		t.Errorf("baseline normWS = %q, want \"1.000\"", base[1])
	}
	if base[2] != "" {
		t.Errorf("baseline Δprev = %q, want empty", base[2])
	}
	// Baseline DDR4 has no ERUCA mechanisms: those columns must be zero.
	for col, name := range map[int]string{3: "ewlr-hit", 4: "plane-conf", 6: "rap/kACT", 7: "ddb-ck/col"} {
		if !strings.HasPrefix(base[col], "0.0") && base[col] != "0.00" {
			t.Errorf("baseline %s = %q, want zero", name, base[col])
		}
	}
	// Every non-baseline rung carries a Δprev cell.
	for i, row := range tbl.Rows[1:] {
		if row[2] == "" {
			t.Errorf("rung %d (%s) missing Δprev", i+1, row[0])
		}
	}
	// The RAP rung must actually redirect; the naive rung must not.
	naive, rap := tbl.Rows[1], tbl.Rows[3]
	if naive[6] != "0.0" {
		t.Errorf("naive VSB rap/kACT = %q, want 0.0", naive[6])
	}
	if rap[6] == "0.0" {
		t.Error("RAP rung reports zero redirects")
	}
	// The VSB rungs see plane conflicts the baseline cannot.
	if naive[4] == "0.0%" {
		t.Error("naive VSB rung reports no plane-conflict precharges")
	}
}

// TestSweepBytesIdenticalWithTelemetry is the non-perturbation proof at
// the table level: the same sweep rendered with and without an attached
// telemetry set is byte-identical. This is what allows erucad to attach
// live counters to every job unconditionally.
func TestSweepBytesIdenticalWithTelemetry(t *testing.T) {
	mk := func(tel *telemetry.Set) string {
		p := Params{Instrs: 8_000, Seed: 7, Mixes: []string{"mix0"}, Telemetry: tel}
		r := NewRunner(p)
		tbl, err := r.Fig13a(0.1)
		if err != nil {
			t.Fatalf("Fig13a: %v", err)
		}
		return tbl.Format()
	}
	bare := mk(nil)
	tel := telemetry.New()
	traced := mk(tel)
	if bare != traced {
		t.Fatalf("sweep table differs with telemetry attached:\n--- bare ---\n%s\n--- traced ---\n%s", bare, traced)
	}
	if tel.Snapshot(0).Counters["acts"] == 0 {
		t.Fatal("telemetry attached but saw no ACTs")
	}
}

// TestWithTelemetryView proves the derived-runner telemetry view feeds
// the given set while sharing the base runner's simulation cache.
func TestWithTelemetryView(t *testing.T) {
	p := Params{Instrs: 8_000, Seed: 7, Mixes: []string{"mix0"}}
	base := NewRunner(p)
	tel := telemetry.New()
	view := base.WithTelemetry(tel)
	sys := fig13Systems(4)[0]
	mix := view.Mixes()[0]
	if _, err := view.Result(sys, mix, 0.1); err != nil {
		t.Fatal(err)
	}
	acts := func() uint64 { return tel.Snapshot(0).Counters["acts"] }
	if acts() == 0 {
		t.Fatal("view simulation did not feed the telemetry set")
	}
	// The base runner shares the cache: a second call through the base
	// must not re-simulate (and so adds no counters).
	before := acts()
	if _, err := base.Result(sys, mix, 0.1); err != nil {
		t.Fatal(err)
	}
	if got := acts(); got != before {
		t.Errorf("cached result re-fed telemetry: %d -> %d", before, got)
	}
}
