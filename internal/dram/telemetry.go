package dram

import (
	"eruca/internal/clock"
	"eruca/internal/telemetry"
)

// Telemetry emission helpers. All are called only when ch.tel != nil and
// strictly after the timing engine committed the command, so they can
// never perturb scheduling. They emit the traced events and feed the
// live histograms; the command and mechanism counts live in Stats alone,
// which the run hands to the Set once it finishes.

// telEvent translates a Command into a telemetry Event; the first six
// telemetry Kinds mirror CmdKind one-to-one.
func (ch *Channel) telEvent(c Command, at clock.Cycle) telemetry.Event {
	return telemetry.Event{
		At:   at,
		Row:  c.Row,
		Run:  ch.telRun,
		Kind: telemetry.Kind(c.Kind),
		Chan: ch.chanID,
		Rank: uint8(c.Rank),
		Grp:  uint8(c.Group),
		Bank: uint8(c.Bank),
		Sub:  uint8(c.Sub),
		Slot: uint8(c.Slot),
	}
}

// telACT records an activation: the inter-ACT gap histogram (per rank,
// prevAct is the rank's previous ACT cycle or the `never` sentinel) and
// the traced event with EWLR/RAP flags.
func (ch *Channel) telACT(c Command, now, prevAct clock.Cycle) {
	t := ch.tel
	e := ch.telEvent(c, now)
	switch {
	case c.EWLRHit:
		e.Flag |= telemetry.FlagEWLRHit
	case ch.planes != nil && ch.planes.EWLR():
		e.Flag |= telemetry.FlagEWLRMiss
	}
	if c.RAPRedirect {
		e.Flag |= telemetry.FlagRAPRemap
	}
	if prevAct != never {
		t.C.InterACT.Observe(now - prevAct)
	}
	t.Emit(e)
	if c.RAPRedirect {
		e.Kind = telemetry.EvRAPRemap
		t.Emit(e)
	}
}

// telPRE records a precharge: the row-open-lifetime histogram (actAt is
// the closed slot's opening ACT cycle; skipped for the spurious
// PRE-on-closed best-effort path) and the traced event with
// partial/plane-conflict flags.
func (ch *Channel) telPRE(c Command, now clock.Cycle, wasActive bool, actAt clock.Cycle) {
	t := ch.tel
	e := ch.telEvent(c, now)
	if c.Partial {
		e.Flag |= telemetry.FlagPartial
	}
	if c.PlaneConflict {
		e.Flag |= telemetry.FlagPlaneConflict
	}
	if wasActive {
		t.C.RowOpen.Observe(now - actAt)
	}
	t.Emit(e)
}

// telCol records a column command and, when the dual data bus pulled its
// issue cycle in versus the single-bus tCCD_L/tWTR_L bound, the DDB
// grant event with the saved cycles.
func (ch *Channel) telCol(c Command, now, ddbSaved clock.Cycle) {
	e := ch.telEvent(c, now)
	ch.tel.Emit(e)
	if ddbSaved > 0 {
		e.Kind = telemetry.EvDDBGrant
		e.Arg = uint32(ddbSaved)
		e.Row = 0
		ch.tel.Emit(e)
	}
}
