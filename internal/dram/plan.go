package dram

import (
	"eruca/internal/clock"
	"eruca/internal/core"
)

// Target addresses one transaction's DRAM coordinates within a channel.
type Target struct {
	Rank, Group, Bank, Sub int
	Row                    uint32
}

// Step is the next command a transaction needs, per the Fig. 5 flow
// evaluated against live bank state.
type Step struct {
	Cmd Command
	// Column reports that Cmd is the transaction's RD/WR itself (the
	// target row is open); otherwise Cmd is a preparatory ACT or PRE.
	Column bool
	// Hit reports the target row was already open (row-buffer hit).
	Hit bool
}

// Memo holds one transaction's last Plan answer together with the
// version stamps of the state it was computed from. The zero Memo holds
// nothing; a caller that reuses a Memo for another transaction must
// reset it to the zero value first.
type Memo struct {
	bk *bank // nil when the Memo holds nothing
	rk *rank

	bankVer, refVer, actVer, colVer uint64

	step Step
	at   clock.Cycle
}

// Plan reports the next command a transaction needs (its Step) and the
// earliest cycle that command could issue. It answers from m while no
// stamp the answer depends on has moved, and otherwise re-evaluates the
// Fig. 5 flow and the timing rules from live state and refills m. The
// answer always equals a fresh evaluation. Each stamp covers exactly
// the state one kind of command reads:
//
//   - the bank stamp, moved by every command to the bank: its row
//     slots, plane latches, MASA selector, tCCD_L and tWTR_L bases;
//   - the rank's refresh stamp, moved when a refresh falls due, at PREA
//     and at REF, and read by every command;
//   - the rank's ACT stamp, moved by every ACT to the rank and read only
//     by ACT (tRRD, tFAW);
//   - the channel's column stamp, moved by every RD/WR and read only by
//     RD/WR (tCCD_S, the data bus and its turnaround, the bank-group
//     tCCD_L/tWTR_L and DDB windows, the rank's tWTR_S base).
//
// The Fig. 5 step reads only the bank's own slots (and the refresh
// PREA that closes them), so the bank and refresh stamps re-plan it.
// The ACT and column stamps cover timing state alone: when only they
// have moved, Plan keeps the step and re-times it.
func (ch *Channel) Plan(t Target, write bool, m *Memo) (Step, clock.Cycle) {
	switch {
	case m.bk == nil || m.bankVer != m.bk.ver || m.refVer != m.rk.refVer:
		ch.replan(t, write, m)
	case m.step.Cmd.Kind == CmdACT && m.actVer != m.rk.actVer,
		m.step.Column && m.colVer != ch.colVer:
		m.at = ch.EarliestIssue(m.step.Cmd)
		m.actVer, m.colVer = m.rk.actVer, ch.colVer
	}
	return m.step, m.at
}

// replan refills m from a fresh evaluation.
func (ch *Channel) replan(t Target, write bool, m *Memo) {
	rk := ch.ranks[t.Rank]
	bk := rk.groups[t.Group].banks[t.Bank]
	m.step = ch.nextStep(t, write)
	m.at = ch.EarliestIssue(m.step.Cmd)
	m.bk, m.rk = bk, rk
	m.bankVer, m.refVer, m.actVer, m.colVer = bk.ver, rk.refVer, rk.actVer, ch.colVer
}

// invalidatePlans makes every Memo of the channel stale, for state that
// changes outside Issue and MaintainRefresh (the fault hooks that touch
// rows or timing, and Restore). Every Plan answer reads its rank's
// refresh stamp, so moving those suffices; the channel stamp moves too,
// which wakes an idle controller.
func (ch *Channel) invalidatePlans() {
	for _, rk := range ch.ranks {
		rk.refVer++
	}
	ch.stamp++
}

// nextStep computes the next command required to service a transaction
// from current state. The returned command carries the EWLR-hit /
// partial-precharge / plane-conflict annotations used for energy and
// Fig. 13b accounting.
func (ch *Channel) nextStep(t Target, write bool) Step {
	bk := ch.ranks[t.Rank].groups[t.Group].banks[t.Bank]
	sb := bk.subs[t.Sub]
	slot := ch.SlotFor(t.Row)
	base := Command{Rank: t.Rank, Group: t.Group, Bank: t.Bank, Sub: t.Sub, Row: t.Row, Slot: slot}

	col := func() Step {
		c := base
		c.Kind = CmdRD
		if write {
			c.Kind = CmdWR
		}
		return Step{Cmd: c, Column: true, Hit: true}
	}

	st := &sb.slots[slot]
	switch {
	case ch.slotsPerSub > 1:
		// MASA: one row buffer per subarray group.
		if st.active && st.row == t.Row {
			return col()
		}
		if st.active {
			c := base
			c.Kind = CmdPRE
			return Step{Cmd: c}
		}
		// Stacked MASA+ERUCA: the two VSB sub-banks share each
		// subarray's row-address latches; EWLR lets them coexist when
		// the MWLs match, otherwise the partner slot must close first
		// (a plane conflict at subarray granularity).
		if ch.stacked {
			other := bk.subs[1-t.Sub]
			ost := &other.slots[slot]
			if ost.active && ch.planes.Latch(t.Row) != ch.planes.Latch(ost.row) {
				c := base
				c.Kind = CmdPRE
				c.Sub = 1 - t.Sub
				c.PlaneConflict = true
				return Step{Cmd: c}
			}
			c := base
			c.Kind = CmdACT
			c.EWLRHit = ch.planes.EWLR() && ost.active && ch.planes.MWL(t.Row) == ch.planes.MWL(ost.row)
			return Step{Cmd: c}
		}
		c := base
		c.Kind = CmdACT
		return Step{Cmd: c}

	case ch.planes != nil:
		// VSB / paired-bank / Half-DRAM: shared plane latches between
		// the two sub-banks (Fig. 5).
		other := bk.subs[1-t.Sub]
		d := ch.planes.Decide(t.Row, t.Sub, sb.state(), other.state())
		switch d.Action {
		case core.ActionHit:
			return col()
		case core.ActionActivate:
			c := base
			c.Kind = CmdACT
			c.EWLRHit = d.EWLRHit
			c.RAPRedirect = d.RAPRedirect
			return Step{Cmd: c}
		case core.ActionPrechargeSelf:
			c := base
			c.Kind = CmdPRE
			c.Partial = d.PartialPrecharge
			return Step{Cmd: c}
		default: // core.ActionPrechargeOther
			c := base
			c.Kind = CmdPRE
			c.Sub = 1 - t.Sub
			c.PlaneConflict = true
			// Closing the partner may itself need to keep the MWL up if
			// a third row shares it; with two sub-banks that cannot
			// happen, so no Partial flag here.
			return Step{Cmd: c}
		}

	default:
		// Stock bank: single row buffer.
		if st.active && st.row == t.Row {
			return col()
		}
		if st.active {
			c := base
			c.Kind = CmdPRE
			return Step{Cmd: c}
		}
		c := base
		c.Kind = CmdACT
		return Step{Cmd: c}
	}
}

// BankLoad reports per-(group,bank) column-command counts, flattened
// group-major — the utilization balance the XOR address hashing is
// supposed to deliver.
func (ch *Channel) BankLoad() []uint64 {
	var out []uint64
	for _, rk := range ch.ranks {
		for _, grp := range rk.groups {
			for _, bk := range grp.banks {
				out = append(out, bk.colCount)
			}
		}
	}
	return out
}

// VisitOpenRows visits every open slot with a ready-to-issue PRE command
// and the slot's last-use cycle. The controller uses it for the adaptive
// close-page timeout and for bounding the next close-page event when
// fast-forwarding idle windows.
func (ch *Channel) VisitOpenRows(visit func(cmd Command, lastUse clock.Cycle)) {
	for r, rk := range ch.ranks {
		for g, grp := range rk.groups {
			for b, bk := range grp.banks {
				for s, sb := range bk.subs {
					for sl := range sb.slots {
						st := &sb.slots[sl]
						if st.active {
							visit(Command{Kind: CmdPRE, Rank: r, Group: g, Bank: b, Sub: s, Slot: sl, Row: st.row}, st.lastUse)
						}
					}
				}
			}
		}
	}
}

// AnyOpenRows reports whether any slot in the channel holds an open
// row, using the per-rank open-sub-bank counters (O(ranks)).
func (ch *Channel) AnyOpenRows() bool {
	for _, rk := range ch.ranks {
		if rk.openSubs > 0 {
			return true
		}
	}
	return false
}

// IdleOpenRows visits every open slot that has not been used for at
// least idleCK cycles, handing the caller a ready-to-build PRE command.
// The controller uses it to implement the adaptive close-page timeout of
// Tab. III.
func (ch *Channel) IdleOpenRows(now, idleCK clock.Cycle, visit func(Command)) {
	ch.VisitOpenRows(func(cmd Command, lastUse clock.Cycle) {
		if now-lastUse >= idleCK {
			visit(cmd)
		}
	})
}
