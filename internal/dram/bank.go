package dram

import (
	"eruca/internal/clock"
	"eruca/internal/core"
)

// rowSlot is one openable row buffer: a plain (sub-)bank has one, a MASA
// (sub-)bank has one per subarray group.
type rowSlot struct {
	active bool
	row    uint32

	rdyAct clock.Cycle // earliest ACT (tRP after the slot's last PRE, tRC after last ACT)
	rdyCol clock.Cycle // earliest RD/WR (tRCD after ACT)
	rdyPre clock.Cycle // earliest PRE (tRAS after ACT, tRTP after RD, data+tWR after WR)

	lastUse clock.Cycle // last ACT or column command, for the close-page timeout
	actAt   clock.Cycle // cycle of the opening ACT, for the row-open-lifetime histogram
}

// subBank is one independently activatable sub-bank (a full bank when the
// scheme has no sub-banking).
type subBank struct {
	slots []rowSlot
	// sel is the subarray slot currently selected for the column path;
	// switching costs tSA (MASA only, Sec. III-A).
	sel int
	// openCount tracks active slots for plane bookkeeping and energy.
	openCount int
}

func newSubBank(slots int) *subBank {
	sb := &subBank{slots: make([]rowSlot, slots)}
	for i := range sb.slots {
		sb.slots[i] = rowSlot{rdyAct: 0, rdyCol: never, rdyPre: never}
	}
	return sb
}

// openRow reports the single open row of a one-slot sub-bank (plane
// bookkeeping is only defined for those).
func (sb *subBank) openRow() (uint32, bool) {
	if sb.slots[0].active {
		return sb.slots[0].row, true
	}
	return 0, false
}

// state summarizes the sub-bank for core.Decide.
func (sb *subBank) state() core.SubState {
	row, ok := sb.openRow()
	return core.SubState{Active: ok, Row: row}
}

// bank is one physical bank (or one paired bank), holding the sub-banks
// that share its plane latches.
type bank struct {
	subs []*subBank

	// lastCol is the bank's last column command: the GBLs are occupied
	// for one DRAM core clock per access and are shared within a bank
	// (tCCD_L "same bank" in the paper's timing table), so column
	// commands to one bank — even to different sub-banks or subarray
	// groups — are at least tCCD_L apart.
	lastCol clock.Cycle
	// lastWrData is the end of the bank's last write burst, for the
	// same-bank tWTR_L write-to-read turnaround.
	lastWrData clock.Cycle
	// colCount counts column commands served, for utilization profiles.
	colCount uint64

	// Plan stamps. rowVer moves on every ACT and PRE to the bank, the
	// only commands that change the row slots its Fig. 5 steps read;
	// ver moves on every command to the bank, since each one changes
	// timing state of the bank that its commands read.
	rowVer, ver uint64
}

// group is one bank group with its shared chip-global bus resources.
type group struct {
	banks []*bank

	// lastCol enforces tCCD_L within the group when bank grouping is on
	// and DDB is off.
	lastCol clock.Cycle
	// lastWrData is the end of the last write burst in the group, for
	// tWTR_L.
	lastWrData clock.Cycle
	// ddb holds the DDB two-command windows when the scheme enables them.
	ddb core.DDBWindow
}

// rank is one rank with its ACT-rate and refresh constraints.
type rank struct {
	groups []*group

	// pairDDB holds the two-command windows of the non-Combo DDB
	// variant, one per vertically-adjacent bank-group pair (Sec. V).
	pairDDB []core.DDBWindow

	lastAct  clock.Cycle
	faw      [4]clock.Cycle // timestamps of the last four ACTs
	fawIdx   int
	openSubs int // total open slots across the rank, for background energy

	lastWrData clock.Cycle // channel... per-rank tWTR_S base

	// Refresh bookkeeping.
	nextRefresh  clock.Cycle
	blockedUntil clock.Cycle // rank unusable during tRFC
	refPending   bool        // refresh due, PREA phase in progress
	preaAt       clock.Cycle // cycle the pre-refresh PREA was performed

	// Background-energy integration.
	lastEnergyAt clock.Cycle
	activeAccum  uint64

	// Plan stamps. refVer moves on every refresh transition (refresh
	// due, PREA, REF), which every command's timing reads; actVer moves
	// on every ACT to the rank, which only ACT timing reads (tRRD, tFAW).
	refVer uint64
	actVer uint64
}

func (r *rank) observe(now clock.Cycle, st *Stats) {
	if now <= r.lastEnergyAt {
		return
	}
	d := uint64(now - r.lastEnergyAt)
	st.AllCycles += d
	if r.openSubs > 0 {
		st.ActiveCycles += d
	}
	r.lastEnergyAt = now
}
