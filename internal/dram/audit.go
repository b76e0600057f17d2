package dram

import (
	"cmp"
	"fmt"
	"slices"

	"eruca/internal/clock"
	"eruca/internal/config"
	"eruca/internal/core"
)

// Auditor independently re-checks the DDR4 protocol over an issued
// command stream. It is a second implementation of the timing rules,
// deliberately written as post-hoc checks over the command history
// rather than as next-allowed registers, so that a bug in the Channel's
// scheduling logic cannot hide in the Auditor too.
//
// Attach with Channel.Attach and call Violations at the end of a run;
// simulation tests run every preset under audit.
type Auditor struct {
	ct   config.CycleTiming
	sch  config.Scheme
	geom config.Geometry

	history    []AuditedCommand
	violations []Violation

	// open tracks row state per (rank, group, bank, sub, slot).
	open map[auditKey]*auditRow
	// blockedUntil tracks per-rank refresh blackouts.
	blockedUntil map[int]clock.Cycle
	// lastRef tracks the last REF per rank for the refresh-interval
	// accounting; refreshOn gates the check.
	lastRef   map[int]clock.Cycle
	refreshOn bool

	planes *core.PlaneLogic
}

type auditKey struct {
	rank, group, bank, sub, slot int
}

// AuditedCommand is one observed command with its issue cycle.
type AuditedCommand struct {
	Cmd Command
	At  clock.Cycle
}

type auditRow struct {
	row    uint32
	actAt  clock.Cycle
	lastRd clock.Cycle
	lastWr clock.Cycle
	preAt  clock.Cycle
	active bool
}

// NewAuditor builds an auditor for one channel's configuration.
func NewAuditor(sys *config.System) *Auditor {
	a := &Auditor{
		ct: sys.CT, sch: sys.Scheme, geom: sys.Geom,
		open:         make(map[auditKey]*auditRow),
		blockedUntil: make(map[int]clock.Cycle),
		lastRef:      make(map[int]clock.Cycle),
		refreshOn:    sys.Ctrl.RefreshEnabled,
	}
	if sys.Scheme.HasPlanes() && sys.Scheme.Mode != config.SubBankMASA {
		rowBits := sys.Geom.RowBits
		if sys.Scheme.Mode != config.SubBankPaired {
			rowBits--
		}
		a.planes = core.NewPlaneLogic(sys.Scheme, rowBits)
	}
	return a
}

func (a *Auditor) fail(at clock.Cycle, rule, format string, args ...any) {
	if len(a.violations) < 32 {
		a.violations = append(a.violations, Violation{
			At: at, Rule: rule, Msg: fmt.Sprintf(format, args...),
		})
	}
}

// Violations reports every detected protocol violation as formatted
// strings (the historical interface; Structured exposes the full record).
func (a *Auditor) Violations() []string {
	var out []string
	for _, v := range a.violations {
		out = append(out, v.Error())
	}
	return out
}

// Structured reports every detected protocol violation with its rule tag
// and cycle. The slice is append-only: callers may track a consumed
// prefix to drain new violations incrementally.
func (a *Auditor) Structured() []Violation { return a.violations }

// Finish runs the end-of-stream checks: the refresh-interval accounting
// flags a rank whose last REF (or, for a run long enough to need one,
// whose first REF) is more than twice tREFI in the past — the signature
// of a lost or indefinitely delayed refresh.
func (a *Auditor) Finish(end clock.Cycle) {
	if !a.refreshOn || a.ct.REFI <= 0 {
		return
	}
	for r := 0; r < a.geom.Ranks; r++ {
		if gap := end - a.lastRef[r]; gap > 2*a.ct.REFI {
			a.fail(end, "tREFI", "refresh starvation: rank %d last REF %d cycles ago (tREFI %d)", r, gap, a.ct.REFI)
		}
	}
}

// Commands reports how many commands were observed.
func (a *Auditor) Commands() int { return len(a.history) }

// Events exposes the full audited command stream in issue order. Tests
// use it to assert that the fast-forwarding run loop issues a
// cycle-identical command stream to the plain per-cycle loop.
func (a *Auditor) Events() []AuditedCommand { return a.history }

// Observe records and checks one issued command.
func (a *Auditor) Observe(c Command, at clock.Cycle) {
	if at < a.blockedUntil[c.Rank] && c.Kind != CmdREF {
		a.fail(at, "tRFC", "command during tRFC blackout (until %d): %v", a.blockedUntil[c.Rank], c)
	}
	switch c.Kind {
	case CmdPREA:
		// Pre-refresh precharge-all: every open row of the rank must
		// meet what a PRE to it would, then closes.
		for _, st := range a.rankRows(c.Rank) {
			if st.active {
				a.checkPrecharge(st, c, at)
				st.active = false
				st.preAt = at
			}
		}
		a.history = append(a.history, AuditedCommand{c, at})
		return
	case CmdREF:
		// Every row of the rank must be closed, at least tRP after the
		// PRE or PREA that closed it.
		for _, st := range a.rankRows(c.Rank) {
			if st.active {
				a.fail(at, "REF-on-open", "REF with row %#x open: %v", st.row, c)
			} else if st.preAt != never && at-st.preAt < a.ct.RP {
				a.fail(at, "tRP", "tRP violation: REF %d after PRE (need %d): %v", at-st.preAt, a.ct.RP, c)
			}
		}
		// Refresh-interval accounting: consecutive REFs to one rank must
		// stay within tREFI plus scheduling slack (the controller may defer
		// a refresh behind open-row draining, but never a whole interval).
		if a.refreshOn && a.ct.REFI > 0 {
			if gap := at - a.lastRef[c.Rank]; gap > 2*a.ct.REFI {
				a.fail(at, "tREFI", "refresh interval overrun: rank %d REF %d cycles after previous (tREFI %d)", c.Rank, gap, a.ct.REFI)
			}
		}
		a.lastRef[c.Rank] = at
		a.blockedUntil[c.Rank] = at + a.ct.RFC
		a.history = append(a.history, AuditedCommand{c, at})
		return
	}
	k := auditKey{c.Rank, c.Group, c.Bank, c.Sub, c.Slot}
	st := a.open[k]
	if st == nil {
		st = &auditRow{actAt: never, lastRd: never, lastWr: never, preAt: never}
		a.open[k] = st
	}

	switch c.Kind {
	case CmdACT:
		if st.active {
			a.fail(at, "ACT-on-open", "ACT to open slot %v", c)
		}
		if st.preAt != never && at-st.preAt < a.ct.RP {
			a.fail(at, "tRP", "tRP violation: ACT %d after PRE (need %d): %v", at-st.preAt, a.ct.RP, c)
		}
		if st.actAt != never && at-st.actAt < a.ct.RC {
			a.fail(at, "tRC", "tRC violation: ACT %d after ACT (need %d): %v", at-st.actAt, a.ct.RC, c)
		}
		a.checkActRate(c, at)
		a.checkPlaneInvariant(c, at)
		st.active = true
		st.row = c.Row
		st.actAt = at
	case CmdPRE:
		if !st.active {
			a.fail(at, "PRE-on-closed", "PRE to closed slot %v", c)
		}
		a.checkPrecharge(st, c, at)
		st.active = false
		st.preAt = at
	case CmdRD, CmdWR:
		if !st.active || st.row != c.Row {
			a.fail(at, "row-mismatch", "column command to closed/mismatched row: %v", c)
		}
		if st.actAt != never && at-st.actAt < a.ct.RCD {
			a.fail(at, "tRCD", "tRCD violation: column %d after ACT (need %d): %v", at-st.actAt, a.ct.RCD, c)
		}
		a.checkColumnSpacing(c, at)
		a.checkDataBus(c, at)
		if c.Kind == CmdRD {
			st.lastRd = at
		} else {
			st.lastWr = at
		}
	}
	a.history = append(a.history, AuditedCommand{c, at})
}

// checkPrecharge enforces the rules that close a row, for a PRE or a
// PREA: tRAS after its ACT, tRTP after its last RD, tWR after its last
// WR's data.
func (a *Auditor) checkPrecharge(st *auditRow, c Command, at clock.Cycle) {
	if st.actAt != never && at-st.actAt < a.ct.RAS {
		a.fail(at, "tRAS", "tRAS violation: %v %d after ACT (need %d): %v", c.Kind, at-st.actAt, a.ct.RAS, c)
	}
	if st.lastRd != never && at-st.lastRd < a.ct.RTP {
		a.fail(at, "tRTP", "tRTP violation: %v %d after RD (need %d): %v", c.Kind, at-st.lastRd, a.ct.RTP, c)
	}
	if st.lastWr != never && at-st.lastWr < a.ct.CWL+a.ct.Burst+a.ct.WR {
		a.fail(at, "tWR", "tWR violation: %v %d after WR: %v", c.Kind, at-st.lastWr, c)
	}
}

// rankRows returns the tracked row slots of one rank in a fixed order
// (group, bank, sub-bank, slot), so that the violations a PREA or REF
// raises come out deterministically.
func (a *Auditor) rankRows(rank int) []*auditRow {
	var keys []auditKey
	for k := range a.open {
		if k.rank == rank {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(x, y auditKey) int {
		return cmp.Or(cmp.Compare(x.group, y.group), cmp.Compare(x.bank, y.bank),
			cmp.Compare(x.sub, y.sub), cmp.Compare(x.slot, y.slot))
	})
	rows := make([]*auditRow, len(keys))
	for i, k := range keys {
		rows[i] = a.open[k]
	}
	return rows
}

// checkActRate enforces tRRD and tFAW per rank over the history.
func (a *Auditor) checkActRate(c Command, at clock.Cycle) {
	count := 0
	for i := len(a.history) - 1; i >= 0; i-- {
		ev := a.history[i]
		if ev.Cmd.Kind != CmdACT || ev.Cmd.Rank != c.Rank {
			continue
		}
		if count == 0 && at-ev.At < a.ct.RRD {
			a.fail(at, "tRRD", "tRRD violation: ACT %d after ACT (need %d): %v", at-ev.At, a.ct.RRD, c)
		}
		count++
		if count == 4 {
			if at-ev.At < a.ct.FAW {
				a.fail(at, "tFAW", "tFAW violation: 5th ACT %d after 4-back (need %d): %v", at-ev.At, a.ct.FAW, c)
			}
			return
		}
		if at-ev.At > a.ct.FAW {
			return
		}
	}
}

// checkColumnSpacing enforces tCCD_S/tCCD_L, bank-group constraints,
// DDB windows and write-to-read turnarounds.
func (a *Auditor) checkColumnSpacing(c Command, at clock.Cycle) {
	read := c.Kind == CmdRD
	sameGroupCount := 0
	for i := len(a.history) - 1; i >= 0; i-- {
		ev := a.history[i]
		if at-ev.At > a.ct.TWTRW+a.ct.FAW {
			break
		}
		if ev.Cmd.Kind != CmdRD && ev.Cmd.Kind != CmdWR {
			continue
		}
		gap := at - ev.At
		if gap < a.ct.CCDS {
			a.fail(at, "tCCD_S", "tCCD_S violation: column %d after column (need %d): %v", gap, a.ct.CCDS, c)
		}
		sameBank := ev.Cmd.Rank == c.Rank && ev.Cmd.Group == c.Group && ev.Cmd.Bank == c.Bank
		sameGroup := ev.Cmd.Rank == c.Rank && ev.Cmd.Group == c.Group
		if sameBank && gap < a.ct.CCDL {
			a.fail(at, "tCCD_L", "tCCD_L(bank) violation: column %d after column (need %d): %v", gap, a.ct.CCDL, c)
		}
		if sameGroup && !a.sch.DDB && a.sch.BankGrouping && gap < a.ct.CCDL {
			a.fail(at, "tCCD_L", "tCCD_L(group) violation: column %d after column (need %d): %v", gap, a.ct.CCDL, c)
		}
		// DDB two-command windows: at most two same-direction column
		// commands per tTCW window within a bank group.
		if sameGroup && a.sch.DDB && a.ct.TwoCommandWindowsOn &&
			(ev.Cmd.Kind == c.Kind) && gap < a.ct.TCW {
			sameGroupCount++
			if sameGroupCount >= 2 {
				a.fail(at, "tTCW", "tTCW violation: third same-direction column within %d: %v", a.ct.TCW, c)
			}
		}
		// Write-to-read turnaround.
		if read && ev.Cmd.Kind == CmdWR {
			dataEnd := ev.At + a.ct.CWL + a.ct.Burst
			if at-dataEnd < a.ct.WTRS && at > dataEnd-a.ct.WTRS {
				a.fail(at, "tWTR_S", "tWTR_S violation: RD %d after WR data end: %v", at-dataEnd, c)
			}
			if sameBank && at < dataEnd+a.ct.WTRL {
				a.fail(at, "tWTR_L", "tWTR_L violation: RD %d after same-bank WR data end: %v", at-dataEnd, c)
			}
		}
	}
}

// checkDataBus verifies that data bursts never overlap on the shared
// external bus, and that a WR's data starts at least tRTW after the
// data of every earlier RD ends (the read-to-write bus turnaround).
func (a *Auditor) checkDataBus(c Command, at clock.Cycle) {
	start, end := a.dataWindow(c.Kind, at)
	for i := len(a.history) - 1; i >= 0; i-- {
		ev := a.history[i]
		if at-ev.At > a.ct.CL+a.ct.Burst+a.ct.CWL+a.ct.RTW {
			break
		}
		if ev.Cmd.Kind != CmdRD && ev.Cmd.Kind != CmdWR {
			continue
		}
		s2, e2 := a.dataWindow(ev.Cmd.Kind, ev.At)
		if start < e2 && s2 < end {
			a.fail(at, "bus-overlap", "data bus overlap: [%d,%d) with [%d,%d): %v", start, end, s2, e2, c)
		}
		if c.Kind == CmdWR && ev.Cmd.Kind == CmdRD && start < e2+a.ct.RTW {
			a.fail(at, "tRTW", "tRTW violation: WR data %d after RD data end (need %d): %v", start-e2, a.ct.RTW, c)
		}
	}
}

func (a *Auditor) dataWindow(k CmdKind, at clock.Cycle) (clock.Cycle, clock.Cycle) {
	if k == CmdRD {
		return at + a.ct.CL, at + a.ct.CL + a.ct.Burst
	}
	return at + a.ct.CWL, at + a.ct.CWL + a.ct.Burst
}

// checkPlaneInvariant enforces the core ERUCA rule: the two sub-banks of
// one bank never simultaneously hold rows with different shared-latch
// values in the same plane.
func (a *Auditor) checkPlaneInvariant(c Command, at clock.Cycle) {
	if a.sch.SubBanksPerBank() < 2 {
		return
	}
	otherKey := auditKey{c.Rank, c.Group, c.Bank, 1 - c.Sub, c.Slot}
	other := a.open[otherKey]
	if other == nil || !other.active {
		return
	}
	if a.sch.Mode == config.SubBankMASA {
		// Stacked MASA: same slot implies shared latches; the Channel's
		// planes logic is checked by its own tests.
		return
	}
	pl := a.planes
	if pl.PlaneID(c.Row, c.Sub) == pl.PlaneID(other.row, 1-c.Sub) &&
		pl.Latch(c.Row) != pl.Latch(other.row) {
		a.fail(at, "plane-invariant", "plane invariant violation: ACT %#x in sub %d while sub %d holds %#x in the same plane",
			c.Row, c.Sub, 1-c.Sub, other.row)
	}
}
