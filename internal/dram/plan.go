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

// Memo binds one transaction's target and holds its last Plan answer
// together with the version stamps of the state it was computed from
// and the rank, group and bank that hold that state. Reset binds it; a
// caller that reuses a Memo for another transaction must Reset it
// first.
type Memo struct {
	t     Target
	write bool

	rk *rank
	gp *group
	bk *bank // nil while the Memo holds no answer

	rowVer, bankVer, refVer, actVer, colVer uint64

	step Step
	at   clock.Cycle
}

// Reset binds m to a transaction's target and drops any answer it
// held.
func (m *Memo) Reset(t Target, write bool) { *m = Memo{t: t, write: write} }

// Plan reports the next command the transaction m is bound to needs
// (its Step) and the earliest cycle that command could issue. The Step
// is read in place: it points into m and stays valid until the next
// Plan or Reset of m. Plan answers from m while no stamp the answer
// depends on has moved, and otherwise re-evaluates the Fig. 5 flow and
// the timing rules from live state and refills m. The answer always
// equals a fresh evaluation. Each stamp covers exactly the state one
// kind of command reads:
//
//   - the bank's row stamp, moved by every ACT and PRE to the bank:
//     its row slots and so its plane latches;
//   - the bank stamp, moved by every command to the bank: the slots'
//     timing, the MASA selector, the tCCD_L and tWTR_L bases;
//   - the rank's refresh stamp, moved when a refresh falls due, at PREA
//     and at REF, and read by every command;
//   - the rank's ACT stamp, moved by every ACT to the rank and read only
//     by ACT (tRRD, tFAW);
//   - the channel's column stamp, moved by every RD/WR and read only by
//     RD/WR (tCCD_S, the data bus and its turnaround, the bank-group
//     tCCD_L/tWTR_L and DDB windows, the rank's tWTR_S base).
//
// The Fig. 5 step reads only the bank's row slots (and the refresh
// PREA that closes them), so the row and refresh stamps re-plan it. The
// other stamps cover timing state alone: when only they have moved,
// Plan keeps the step and re-times it. A RD or WR therefore re-times
// the plans of its bank and never re-plans them.
func (ch *Channel) Plan(m *Memo) (*Step, clock.Cycle) {
	switch {
	case m.bk == nil || m.rowVer != m.bk.rowVer || m.refVer != m.rk.refVer:
		ch.replan(m)
	case m.bankVer != m.bk.ver,
		m.step.Cmd.Kind == CmdACT && m.actVer != m.rk.actVer,
		m.step.Column && m.colVer != ch.colVer:
		m.at = ch.earliest(&m.step.Cmd, m.rk, m.gp, m.bk)
		m.bankVer, m.actVer, m.colVer = m.bk.ver, m.rk.actVer, ch.colVer
	}
	return &m.step, m.at
}

// replan refills m from a fresh evaluation, walking rank, group and
// bank once for both the step and its timing.
func (ch *Channel) replan(m *Memo) {
	rk := ch.ranks[m.t.Rank]
	gp := rk.groups[m.t.Group]
	bk := gp.banks[m.t.Bank]
	m.step = ch.stepFor(bk, m.t, m.write)
	m.at = ch.earliest(&m.step.Cmd, rk, gp, bk)
	m.rk, m.gp, m.bk = rk, gp, bk
	m.rowVer, m.bankVer, m.refVer, m.actVer, m.colVer = bk.rowVer, bk.ver, rk.refVer, rk.actVer, ch.colVer
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

// stepFor computes the next command required to service a transaction
// from the current state of its bank bk. The returned command carries
// the EWLR-hit / partial-precharge / plane-conflict annotations used
// for energy and Fig. 13b accounting.
func (ch *Channel) stepFor(bk *bank, t Target, write bool) Step {
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
