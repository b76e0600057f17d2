package dram

import (
	"strings"
	"testing"

	"eruca/internal/clock"
	"eruca/internal/config"
)

func auditedChannel(t *testing.T, sys *config.System) (*Channel, *Auditor, config.CycleTiming) {
	t.Helper()
	ch, ct := testChannel(t, sys)
	a := NewAuditor(sys)
	ch.Attach(a)
	return ch, a, ct
}

// A legally scheduled sequence produces zero violations.
func TestAuditorCleanSequence(t *testing.T) {
	ch, a, _ := auditedChannel(t, config.Baseline(config.DefaultBusMHz))
	for _, bank := range []int{0, 3, 5, 9} {
		issueAt(t, ch, cmd(CmdACT, bank, uint32(bank)), 0)
	}
	now := issueAt(t, ch, cmd(CmdRD, 0, 0), 200)
	now = issueAt(t, ch, cmd(CmdRD, 3, 3), now)
	now = issueAt(t, ch, cmd(CmdWR, 5, 5), now)
	now = issueAt(t, ch, cmd(CmdRD, 9, 9), now)
	issueAt(t, ch, cmd(CmdPRE, 0, 0), now)
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("clean sequence flagged: %v", v)
	}
	if a.Commands() != 9 {
		t.Errorf("observed %d commands, want 9", a.Commands())
	}
}

// The auditor is an independent checker: feed it raw illegal command
// sequences (bypassing the Channel) and verify each rule fires.
func TestAuditorCatchesViolations(t *testing.T) {
	sys := config.Baseline(config.DefaultBusMHz)
	ct := sys.CT
	cases := []struct {
		name string
		feed func(a *Auditor)
		want string
	}{
		{"tRCD", func(a *Auditor) {
			a.Observe(cmd(CmdACT, 0, 1), 0)
			a.Observe(cmd(CmdRD, 0, 1), ct.RCD-1)
		}, "tRCD"},
		{"tRAS", func(a *Auditor) {
			a.Observe(cmd(CmdACT, 0, 1), 0)
			a.Observe(cmd(CmdPRE, 0, 1), ct.RAS-1)
		}, "tRAS"},
		{"tRP", func(a *Auditor) {
			a.Observe(cmd(CmdACT, 0, 1), 0)
			a.Observe(cmd(CmdPRE, 0, 1), ct.RAS)
			a.Observe(cmd(CmdACT, 0, 2), ct.RAS+ct.RP-1)
		}, "tRP"},
		{"tRRD", func(a *Auditor) {
			a.Observe(cmd(CmdACT, 0, 1), 0)
			a.Observe(cmd(CmdACT, 4, 1), ct.RRD-1)
		}, "tRRD"},
		{"tFAW", func(a *Auditor) {
			for i := 0; i < 4; i++ {
				a.Observe(cmd(CmdACT, i*4, 1), int64(i)*ct.RRD)
			}
			a.Observe(cmd(CmdACT, 1, 1), ct.FAW-1)
		}, "tFAW"},
		{"tCCD_L", func(a *Auditor) {
			a.Observe(cmd(CmdACT, 0, 1), 0)
			a.Observe(cmd(CmdRD, 0, 1), ct.RCD)
			a.Observe(cmd(CmdRD, 0, 1), ct.RCD+ct.CCDL-1)
		}, "tCCD_L"},
		{"ACT-open", func(a *Auditor) {
			a.Observe(cmd(CmdACT, 0, 1), 0)
			a.Observe(cmd(CmdACT, 0, 2), 1000)
		}, "ACT to open"},
		{"col-closed", func(a *Auditor) {
			a.Observe(cmd(CmdRD, 0, 1), 0)
		}, "closed/mismatched"},
		{"tWR", func(a *Auditor) {
			a.Observe(cmd(CmdACT, 0, 1), 0)
			a.Observe(cmd(CmdWR, 0, 1), ct.RCD)
			a.Observe(cmd(CmdPRE, 0, 1), ct.RCD+ct.CWL+ct.Burst+ct.WR-1)
		}, "tWR"},
		{"refresh-blackout", func(a *Auditor) {
			a.Observe(Command{Kind: CmdREF}, 0)
			a.Observe(cmd(CmdACT, 0, 1), ct.RFC-1)
		}, "blackout"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewAuditor(sys)
			c.feed(a)
			v := a.Violations()
			if len(v) == 0 {
				t.Fatalf("%s violation not detected", c.name)
			}
			if !strings.Contains(v[0], c.want) {
				t.Errorf("violation %q does not mention %q", v[0], c.want)
			}
		})
	}
}

// The read-to-write bus turnaround: a RD and then a WR, each issued at
// its EarliestIssue, pass audit, and the same WR one cycle earlier
// breaks tRTW and nothing else.
func TestAuditorReadToWriteTurnaround(t *testing.T) {
	sys := config.Baseline(config.DefaultBusMHz)
	ch, a, ct := auditedChannel(t, sys)
	issueAt(t, ch, cmd(CmdACT, 0, 7), 0)
	issueAt(t, ch, cmd(CmdACT, 4, 7), 0)
	rd := issueAt(t, ch, cmd(CmdRD, 0, 7), 0)
	wr := issueAt(t, ch, cmd(CmdWR, 4, 7), 0)
	if wr+ct.CWL != rd+ct.CL+ct.Burst+ct.RTW {
		t.Fatalf("WR at %d is not bound by tRTW after the RD at %d", wr, rd)
	}
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("RD then WR at EarliestIssue flagged: %v", v)
	}

	early := NewAuditor(sys)
	events := a.Events()
	for i, ev := range events {
		if i == len(events)-1 {
			ev.At--
		}
		early.Observe(ev.Cmd, ev.At)
	}
	var rules []string
	for _, v := range early.Structured() {
		rules = append(rules, v.Rule)
	}
	if len(rules) != 1 || rules[0] != "tRTW" {
		t.Fatalf("WR one cycle early: rules %v, want [tRTW]", rules)
	}
}

// The plane invariant: ACT into a plane whose latches the partner
// sub-bank holds with a different value.
func TestAuditorPlaneInvariant(t *testing.T) {
	sys := config.VSB(4, false, false, false, config.DefaultBusMHz)
	a := NewAuditor(sys)
	a.Observe(Command{Kind: CmdACT, Sub: 0, Row: 0x0100}, 0)
	a.Observe(Command{Kind: CmdACT, Sub: 1, Row: 0x0200}, 100)
	found := false
	for _, v := range a.Violations() {
		if strings.Contains(v, "plane invariant") {
			found = true
		}
	}
	if !found {
		t.Fatalf("plane invariant violation not detected: %v", a.Violations())
	}
}

// The Channel never produces violations across schemes when driven
// through its own EarliestIssue (cross-checking the two rule
// implementations against each other).
func TestChannelNeverViolatesAudit(t *testing.T) {
	systems := []*config.System{
		config.Baseline(config.DefaultBusMHz),
		config.VSB(4, true, true, true, config.DefaultBusMHz),
		config.VSB(2, false, false, false, config.DefaultBusMHz),
		config.VSB(4, true, true, true, 2400),
		config.Ideal32(config.DefaultBusMHz),
		config.MASA(8, config.DefaultBusMHz),
		config.PairedBank(4, true, config.DefaultBusMHz),
	}
	for _, sys := range systems {
		ch, a, _ := auditedChannel(t, sys)
		banks := sys.Geom.BanksPerGroup
		if sys.Scheme.Mode == config.SubBankPaired {
			banks /= 2
		}
		now := int64(0)
		rng := uint32(12345)
		for i := 0; i < 2000; i++ {
			rng = rng*1664525 + 1013904223
			tgt := Target{
				Group: int(rng>>8) % sys.Geom.BankGroups,
				Bank:  int(rng>>12) % banks,
				Sub:   int(rng>>16) % sys.Scheme.SubBanksPerBank(),
				Row:   rng >> 17 & 0x3FFF,
			}
			write := rng&1 == 0
			for j := 0; j < 6; j++ {
				st := ch.nextStep(tgt, write)
				e := ch.EarliestIssue(st.Cmd)
				if e < now {
					e = now
				}
				ch.Issue(st.Cmd, e)
				now = e
				if st.Column {
					break
				}
			}
		}
		if v := a.Violations(); len(v) != 0 {
			t.Errorf("%s: %d violations, first: %s", sys.Name, len(v), v[0])
		}
	}
}

// refreshChannel is a refresh-enabled one-rank channel with an attached
// auditor.
func refreshChannel(t *testing.T, sys *config.System) (*Channel, *Auditor) {
	t.Helper()
	sys.Ctrl.RefreshEnabled = true
	ch := NewChannel(sys, sys.Geom.RowBits)
	a := NewAuditor(sys)
	ch.Attach(a)
	return ch, a
}

// refreshUntilREF runs MaintainRefresh every cycle from `from` until
// the rank has refreshed once.
func refreshUntilREF(t *testing.T, ch *Channel, from clock.Cycle) {
	t.Helper()
	for now := from; ch.Stats.Refreshes == 0; now++ {
		if now > from+100_000 {
			t.Fatal("no REF within 100,000 cycles")
		}
		ch.MaintainRefresh(now)
	}
}

// replayRules feeds events to a fresh auditor with the i-th moved by
// delta cycles and returns the rules it flags.
func replayRules(sys *config.System, events []AuditedCommand, i int, delta clock.Cycle) []string {
	a := NewAuditor(sys)
	for j, ev := range events {
		if j == i {
			ev.At += delta
		}
		a.Observe(ev.Cmd, ev.At)
	}
	var rules []string
	for _, v := range a.Structured() {
		rules = append(rules, v.Rule)
	}
	return rules
}

func eventIndex(events []AuditedCommand, k CmdKind) int {
	for i, ev := range events {
		if ev.Cmd.Kind == k {
			return i
		}
	}
	return -1
}

// REF waits tRP after every PRE, not only after the rank's own PREA,
// and PREA waits on every open row as a PRE to it would. The refresh
// falls due at tREFI (10,400 cycles at 1,333 MHz); the auditor must
// flag a REF or PREA one cycle earlier than the engine issues it.
func TestAuditorRefreshTiming(t *testing.T) {
	sys := config.Baseline(1333)
	ct := sys.CT
	due := ct.REFI

	// The last open row closes by PRE one cycle before the refresh is
	// due: REF must still wait tRP after that PRE.
	t.Run("PRE-then-REF", func(t *testing.T) {
		ch, a := refreshChannel(t, sys)
		issueAt(t, ch, cmd(CmdACT, 0, 7), 0)
		issueAt(t, ch, cmd(CmdPRE, 0, 7), due-1)
		refreshUntilREF(t, ch, due)
		events := a.Events()
		ref := eventIndex(events, CmdREF)
		if at := events[ref].At; at != due-1+ct.RP {
			t.Errorf("REF at %d, want tRP = %d after the PRE at %d", at, ct.RP, due-1)
		}
		if v := a.Violations(); len(v) != 0 {
			t.Fatalf("engine's refresh flagged: %v", v)
		}
		for _, at := range []clock.Cycle{due, due - 1 + ct.RP - 1} {
			rules := replayRules(sys, events, ref, at-events[ref].At)
			if len(rules) != 1 || rules[0] != "tRP" {
				t.Errorf("REF at %d: rules %v, want [tRP]", at, rules)
			}
		}
	})

	// A row still open when the refresh falls due is closed by PREA at
	// the first cycle its tRAS, tRTP or tWR allows, and REF follows
	// tRP later.
	for _, c := range []struct {
		last CmdKind
		rule string
	}{{CmdACT, "tRAS"}, {CmdRD, "tRTP"}, {CmdWR, "tWR"}} {
		t.Run(c.last.String()+"-then-PREA", func(t *testing.T) {
			ch, a := refreshChannel(t, sys)
			var last, bound clock.Cycle
			if c.last == CmdACT {
				last = issueAt(t, ch, cmd(CmdACT, 0, 7), due-5)
				bound = last + ct.RAS
			} else {
				issueAt(t, ch, cmd(CmdACT, 0, 7), due-400)
				last = issueAt(t, ch, cmd(c.last, 0, 7), due-2)
				bound = last + ct.RTP
				if c.last == CmdWR {
					bound = last + ct.CWL + ct.Burst + ct.WR
				}
			}
			refreshUntilREF(t, ch, last+1)
			events := a.Events()
			prea, ref := eventIndex(events, CmdPREA), eventIndex(events, CmdREF)
			if prea < 0 || events[prea].At != bound {
				t.Fatalf("PREA event %d, want one at %d: %v", prea, bound, events)
			}
			if events[ref].At != bound+ct.RP {
				t.Errorf("REF at %d, want tRP after the PREA at %d", events[ref].At, bound)
			}
			if v := a.Violations(); len(v) != 0 {
				t.Fatalf("engine's refresh flagged: %v", v)
			}
			if rules := replayRules(sys, events, prea, -1); len(rules) != 1 || rules[0] != c.rule {
				t.Errorf("PREA one cycle early: rules %v, want [%s]", rules, c.rule)
			}
		})
	}

	t.Run("REF-on-open", func(t *testing.T) {
		a := NewAuditor(sys)
		a.Observe(cmd(CmdACT, 0, 7), 0)
		a.Observe(Command{Kind: CmdREF}, 1000)
		if v := a.Structured(); len(v) != 1 || v[0].Rule != "REF-on-open" {
			t.Errorf("REF with an open row: %v, want [REF-on-open]", v)
		}
	})
}
