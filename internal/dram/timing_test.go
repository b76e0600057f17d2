package dram

import (
	"reflect"
	"testing"

	"eruca/internal/clock"
	"eruca/internal/config"
)

// Read-to-write turnaround: a write command after a read must leave the
// bus turnaround gap.
func TestReadToWriteTurnaround(t *testing.T) {
	ch, ct := baselineCh(t)
	ch.Issue(cmd(CmdACT, 0, 7), 0)
	issueAt(t, ch, cmd(CmdACT, 4, 7), 0)
	rd := issueAt(t, ch, cmd(CmdRD, 0, 7), 100)
	wr := ch.EarliestIssue(cmd(CmdWR, 4, 7))
	// Write data (at +CWL) must start after read data ends (+CL+burst)
	// plus the turnaround bubble.
	if wr+ct.CWL < rd+ct.CL+ct.Burst+ct.RTW {
		t.Errorf("write data at %d overlaps read data ending %d", wr+ct.CWL, rd+ct.CL+ct.Burst)
	}
}

// An EWLR-hit ACT obeys the same timing as a normal ACT (the saving is
// energy, not latency).
func TestEWLRHitACTSameTiming(t *testing.T) {
	sys := config.VSB(4, true, false, false, config.DefaultBusMHz)
	ch, ct := testChannel(t, sys)
	a := Command{Kind: CmdACT, Sub: 0, Row: 0x0104}
	ch.Issue(a, 0)
	hit := Command{Kind: CmdACT, Sub: 1, Row: 0x0110, EWLRHit: true}
	if e := ch.EarliestIssue(hit); e != ct.RRD {
		t.Errorf("EWLR-hit ACT earliest = %d, want tRRD = %d", e, ct.RRD)
	}
}

// EarliestIssue never mutates state: repeated queries agree.
func TestEarliestIssueIdempotent(t *testing.T) {
	ch, _ := baselineCh(t)
	ch.Issue(cmd(CmdACT, 0, 7), 0)
	c := cmd(CmdRD, 0, 7)
	e1 := ch.EarliestIssue(c)
	for i := 0; i < 10; i++ {
		if e := ch.EarliestIssue(c); e != e1 {
			t.Fatalf("EarliestIssue changed: %d -> %d", e1, e)
		}
	}
}

// Issuing later than the earliest legal cycle is always allowed.
func TestIssueLaterIsLegal(t *testing.T) {
	ch, _ := baselineCh(t)
	ch.Issue(cmd(CmdACT, 0, 7), 0)
	c := cmd(CmdRD, 0, 7)
	e := ch.EarliestIssue(c)
	ch.Issue(c, e+500) // must not panic
}

// Two ranks operate independently for bank state but share the channel
// data bus.
func TestTwoRanksShareDataBus(t *testing.T) {
	geom := config.DefaultGeometry()
	geom.Ranks = 2
	geom.RowBits-- // keep capacity constant
	sch := config.Scheme{Name: "2rank", Mode: config.SubBankNone, BankGrouping: true}
	sys := config.MustSystem("2rank", geom, sch, config.DDR4Timing(), config.DefaultBusMHz,
		config.DefaultController(), config.DefaultCPU())
	ch, ct := testChannel(t, sys)

	a := Command{Kind: CmdACT, Rank: 0, Row: 7}
	b := Command{Kind: CmdACT, Rank: 1, Row: 9}
	ch.Issue(a, 0)
	// tRRD is per rank: the other rank can activate immediately.
	if e := ch.EarliestIssue(b); e != 0 {
		t.Errorf("cross-rank ACT earliest = %d, want 0", e)
	}
	ch.Issue(b, 0)
	r0 := issueAt(t, ch, Command{Kind: CmdRD, Rank: 0, Row: 7}, 100)
	r1 := ch.EarliestIssue(Command{Kind: CmdRD, Rank: 1, Row: 9})
	if r1-r0 < ct.Burst {
		t.Errorf("cross-rank reads %d apart, bus needs >= burst %d", r1-r0, ct.Burst)
	}
}

// Refresh recurs with period tREFI.
func TestRefreshPeriodicity(t *testing.T) {
	sys := config.Baseline(config.DefaultBusMHz)
	ch := NewChannel(sys, sys.Geom.RowBits)
	ct := sys.CT
	for now := clock.Cycle(0); now < ct.REFI*4; now++ {
		ch.MaintainRefresh(now)
	}
	if got := ch.Stats.Refreshes; got != 3 {
		t.Errorf("refreshes in 4*tREFI = %d, want 3", got)
	}
}

// A write's data end gates its precharge even when tRAS has long passed.
func TestWriteRecoveryDominatesLateWrite(t *testing.T) {
	ch, ct := baselineCh(t)
	ch.Issue(cmd(CmdACT, 0, 7), 0)
	wr := issueAt(t, ch, cmd(CmdWR, 0, 7), ct.RAS+100)
	want := wr + ct.CWL + ct.Burst + ct.WR
	if e := ch.EarliestIssue(cmd(CmdPRE, 0, 7)); e != want {
		t.Errorf("PRE after late write = %d, want %d", e, want)
	}
}

// MASA keeps per-slot precharge state: closing one subarray leaves the
// others open.
func TestMASAPerSlotPrecharge(t *testing.T) {
	ch, _ := testChannel(t, config.MASA(8, config.DefaultBusMHz))
	rowA, rowB := uint32(0), uint32(1)
	run(t, ch, Target{Row: rowA}, false, 0)
	run(t, ch, Target{Row: rowB}, false, 0)
	pre := Command{Kind: CmdPRE, Row: rowA, Slot: ch.SlotFor(rowA)}
	issueAt(t, ch, pre, 1000)
	if _, open := ch.OpenRow(Target{Row: rowB}); !open {
		t.Error("closing slot 0 closed slot 1")
	}
	if _, open := ch.OpenRow(Target{Row: rowA}); open {
		t.Error("slot 0 still open after PRE")
	}
}

// Without bank grouping, tWTR_L still applies within a bank.
func TestIdealKeepsSameBankWTR(t *testing.T) {
	ch, ct := testChannel(t, config.Ideal32(config.DefaultBusMHz))
	c0 := Command{Kind: CmdACT, Row: 7}
	ch.Issue(c0, 0)
	wr := issueAt(t, ch, Command{Kind: CmdWR, Row: 7}, 0)
	dataEnd := wr + ct.CWL + ct.Burst
	if e := ch.EarliestIssue(Command{Kind: CmdRD, Row: 7}); e < dataEnd+ct.WTRL {
		t.Errorf("same-bank W->R = %d, want >= %d", e, dataEnd+ct.WTRL)
	}
}

// The naive paired-bank combination (no EWLR/RAP) plane-conflicts
// between its constituent banks.
func TestPairedNaiveConflicts(t *testing.T) {
	sch := config.Scheme{
		Name: "paired-naive", Mode: config.SubBankPaired,
		Planes: 4, PlaneBits: config.PlaneBitsHigh, BankGrouping: true,
	}
	sys := config.MustSystem("paired-naive", config.DefaultGeometry(), sch,
		config.DDR4Timing(), config.DefaultBusMHz, config.DefaultController(), config.DefaultCPU())
	ch, _ := testChannel(t, sys)
	run(t, ch, Target{Sub: 0, Row: 0x00100}, false, 0)
	_, steps := run(t, ch, Target{Sub: 1, Row: 0x00200}, false, 0)
	if steps[0].Cmd.Kind != CmdPRE || !steps[0].Cmd.PlaneConflict {
		t.Fatalf("naive paired banks did not conflict: %+v", steps)
	}
}

// The FAW window tracks exactly the last four activations: a fifth ACT
// spaced widely is unconstrained.
func TestFAWWindowSlides(t *testing.T) {
	ch, ct := baselineCh(t)
	var at clock.Cycle
	for i := 0; i < 4; i++ {
		at = issueAt(t, ch, cmd(CmdACT, i*4, 7), at+ct.FAW/3)
	}
	fifth := ch.EarliestIssue(cmd(CmdACT, 1, 7))
	if fifth > at+ct.RRD {
		t.Errorf("widely spaced ACTs still FAW-bound: earliest %d vs last %d", fifth, at)
	}
}

// CmdKind and Command have readable string forms.
func TestStringers(t *testing.T) {
	if CmdACT.String() != "ACT" || CmdPREA.String() != "PREA" {
		t.Error("CmdKind strings")
	}
	c := Command{Kind: CmdRD, Group: 1, Bank: 2, Sub: 1, Row: 0xAB}
	s := c.String()
	if s == "" || len(s) < 10 {
		t.Errorf("Command string %q", s)
	}
}

// RowHits never underflows when activations exceed column commands.
func TestRowHitsUnderflowGuard(t *testing.T) {
	s := Stats{Acts: 10, Reads: 3}
	if s.RowHits() != 0 {
		t.Errorf("RowHits = %d, want 0", s.RowHits())
	}
}

// Add sums every counter, so a field added to Stats cannot be dropped
// from the per-run totals.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b, want Stats
	va, vb, vw := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), reflect.ValueOf(&want).Elem()
	for i := range va.NumField() {
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(100 * (i + 1)))
		vw.Field(i).SetUint(uint64(101 * (i + 1)))
	}
	a.Add(b)
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}
