// Package dram is the cycle-level DDR4 device timing engine underneath
// the ERUCA memory controller. It models channels, ranks, bank groups,
// banks, ERUCA sub-banks (including plane latch sharing, EWLR and partial
// precharge), MASA subarray slots, the single or dual (DDB) chip-global
// data bus, refresh, and per-command energy event counters.
//
// The engine is passive: the memory controller (internal/memctrl) asks
// when a command could issue (EarliestIssue) and commits it (Issue); the
// engine enforces every DDR4 timing constraint of Tab. III plus the
// ERUCA-specific tTCW/tTWTRW windows and plane rules, and panics on a
// protocol violation — a controller bug, never a workload property.
package dram

import (
	"fmt"

	"eruca/internal/clock"
)

// CmdKind enumerates DRAM commands.
type CmdKind int

const (
	// CmdACT activates a row in a (sub-)bank.
	CmdACT CmdKind = iota
	// CmdPRE precharges one (sub-)bank (one MASA slot when the scheme
	// has subarray groups).
	CmdPRE
	// CmdRD reads one burst (one cache line) from the open row.
	CmdRD
	// CmdWR writes one burst to the open row.
	CmdWR
	// CmdPREA precharges every bank in a rank (issued before refresh).
	CmdPREA
	// CmdREF refreshes a rank; the rank is unavailable for tRFC.
	CmdREF
)

// String implements fmt.Stringer.
func (k CmdKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdPREA:
		return "PREA"
	case CmdREF:
		return "REF"
	}
	return fmt.Sprintf("CmdKind(%d)", int(k))
}

// Command addresses one DRAM command within a channel.
type Command struct {
	Kind  CmdKind
	Rank  int
	Group int
	Bank  int
	Sub   int
	Row   uint32 // ACT: row to open; PRE: ignored
	Slot  int    // MASA subarray slot (0 when the scheme has none)

	// EWLRHit marks an ACT that reuses an already-driven MWL (energy
	// accounting; Sec. IV).
	EWLRHit bool
	// Partial marks a PRE that must leave the shared MWL driven because
	// the paired sub-bank holds a row in the same EWLR (Sec. VI-A).
	Partial bool
	// PlaneConflict marks a PRE issued to resolve a plane conflict (the
	// paired sub-bank needed the target plane's latches) — the Fig. 13b
	// metric.
	PlaneConflict bool
	// RAPRedirect marks an ACT whose plane ID was inverted by RAP so that
	// a raw-plane-bit collision with the paired sub-bank's open row did
	// not become a plane conflict (attribution; Sec. V-B).
	RAPRedirect bool
}

// String implements fmt.Stringer.
func (c Command) String() string {
	return fmt.Sprintf("%s rk%d bg%d bk%d sb%d slot%d row %#x", c.Kind, c.Rank, c.Group, c.Bank, c.Sub, c.Slot, c.Row)
}

// Stats counts DRAM command events for performance and energy analysis.
type Stats struct {
	Acts         uint64
	ActsEWLRHit  uint64 // subset of Acts that reused a driven MWL
	Reads        uint64
	Writes       uint64
	Pres         uint64
	PartialPres  uint64 // subset of Pres that kept the MWL driven
	PlaneConfPre uint64 // Pres issued to resolve a plane conflict (Fig. 13b)
	RAPRedirects uint64 // ACTs whose RAP inversion dodged a raw plane-bit collision
	DDBSavedCK   uint64 // bus cycles of single-bus tCCD_L/tWTR_L the dual data bus recovered
	Refreshes    uint64
	PreAlls      uint64

	// ActiveCycles integrates bus cycles during which the rank had at
	// least one open row; AllCycles is total observed cycles. The split
	// drives active- vs precharge-standby background energy.
	ActiveCycles uint64
	AllCycles    uint64
}

// Add accumulates o into s, field by field.
func (s *Stats) Add(o Stats) {
	s.Acts += o.Acts
	s.ActsEWLRHit += o.ActsEWLRHit
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Pres += o.Pres
	s.PartialPres += o.PartialPres
	s.PlaneConfPre += o.PlaneConfPre
	s.RAPRedirects += o.RAPRedirects
	s.DDBSavedCK += o.DDBSavedCK
	s.Refreshes += o.Refreshes
	s.PreAlls += o.PreAlls
	s.ActiveCycles += o.ActiveCycles
	s.AllCycles += o.AllCycles
}

// RowHits reports reads+writes minus activates: every column command not
// preceded by its own ACT hit an open row.
func (s *Stats) RowHits() uint64 {
	cols := s.Reads + s.Writes
	if s.Acts > cols {
		return 0
	}
	return cols - s.Acts
}

const never = clock.Cycle(-1) << 60

// Violation is one structured protocol violation: a timing or state rule
// broken at a cycle, tagged with the JEDEC/ERUCA rule name ("tRP",
// "ACT-on-open", "plane-invariant", ...). The timing engine raises them
// for controller bugs; the Auditor records them when re-checking an
// observed command stream.
type Violation struct {
	At   clock.Cycle
	Rule string
	Cmd  Command // zero when the violation is not tied to one command
	Msg  string
}

// Error implements error, matching the auditor's historical formatting.
func (v Violation) Error() string { return fmt.Sprintf("cycle %d: %s", v.At, v.Msg) }

// Observer receives every command the channel issues (including the
// internally managed PREA/REF refresh sequence), in issue order. The
// Auditor and the protocol checker both implement it.
type Observer interface {
	Observe(c Command, at clock.Cycle)
}
