package dram

import (
	"fmt"
	"strings"

	"eruca/internal/clock"
)

// This file holds the deliberate fault hooks used by the chaos harness
// (internal/faults). Each hook perturbs channel state *without* going
// through the Issue protocol path, so the perturbation is invisible to
// the timing engine's own bookkeeping but visible to an attached
// protocol checker as soon as the controller acts on the corrupted
// state. None of these are called outside fault-injection runs.

// InjectRefreshDelay postpones the rank's next due refresh by delta
// cycles — the classic "lost refresh" fault. A delay beyond tREFI is
// caught by the checker's refresh-interval accounting. It reports
// whether the delay was applied (a refresh already in flight cannot be
// delayed).
func (ch *Channel) InjectRefreshDelay(rank int, delta clock.Cycle) bool {
	if rank < 0 || rank >= len(ch.ranks) {
		return false
	}
	rk := ch.ranks[rank]
	if rk.refPending {
		return false
	}
	// No Plan reads nextRefresh, so no Memo goes stale here; the refresh
	// stamp moves when the delayed refresh falls due.
	rk.nextRefresh += delta
	return true
}

// InjectForcePrecharge silently closes the first open row slot it finds,
// clearing its timing guards, as if a row of latches dropped their
// state. The controller's next ACT to the slot appears as ACT-on-open to
// a checker that tracked the un-precharged row. Reports whether any slot
// was open to corrupt.
func (ch *Channel) InjectForcePrecharge() bool {
	for _, rk := range ch.ranks {
		for _, grp := range rk.groups {
			for _, bk := range grp.banks {
				for _, sb := range bk.subs {
					for i := range sb.slots {
						st := &sb.slots[i]
						if !st.active {
							continue
						}
						st.active = false
						st.rdyAct = 0
						st.rdyCol = never
						st.rdyPre = never
						sb.openCount--
						rk.openSubs--
						ch.invalidatePlans()
						return true
					}
				}
			}
		}
	}
	return false
}

// InjectTimingReset wipes the channel's column/activation spacing state
// (tCCD bases, data-bus occupancy, tRRD/tFAW history), modeling a
// controller whose next-allowed registers glitched to zero. Subsequent
// commands can then issue back-to-back, which the checker flags as
// tCCD/tRRD/tFAW/data-bus violations.
func (ch *Channel) InjectTimingReset() bool {
	ch.invalidatePlans()
	ch.lastCol = never
	ch.busBusyUntil = 0
	for _, rk := range ch.ranks {
		rk.lastAct = never
		rk.lastWrData = never
		for i := range rk.faw {
			rk.faw[i] = never
		}
		for _, grp := range rk.groups {
			grp.lastCol = never
			grp.lastWrData = never
			for _, bk := range grp.banks {
				bk.lastCol = never
				bk.lastWrData = never
				for _, sb := range bk.subs {
					for i := range sb.slots {
						st := &sb.slots[i]
						if st.active {
							st.rdyCol = 0
							st.rdyPre = 0
						}
					}
				}
			}
		}
	}
	return true
}

// InjectRowCorruption flips the top row-address bit of every open slot —
// corrupted plane-latch state. In plane-sharing schemes the channel's
// activation decisions then diverge from the ground truth a checker
// tracked from the command stream, surfacing as plane-invariant or
// row-mismatch violations. Reports whether any open slot was corrupted.
func (ch *Channel) InjectRowCorruption() bool {
	if ch.rowBits < 1 {
		return false
	}
	flip := uint32(1) << uint(ch.rowBits-1)
	ch.invalidatePlans()
	any := false
	for _, rk := range ch.ranks {
		for _, grp := range rk.groups {
			for _, bk := range grp.banks {
				for _, sb := range bk.subs {
					for i := range sb.slots {
						if sb.slots[i].active {
							sb.slots[i].row ^= flip
							any = true
						}
					}
				}
			}
		}
	}
	return any
}

// DescribeState renders a human-readable snapshot of the channel for
// deadlock reports and crash dumps: per-rank refresh state and the open
// rows (bounded per rank).
func (ch *Channel) DescribeState(now clock.Cycle) string {
	var b strings.Builder
	for r, rk := range ch.ranks {
		fmt.Fprintf(&b, "  rank %d: openSubs=%d refPending=%v blockedUntil=%d nextRefresh=%d\n",
			r, rk.openSubs, rk.refPending, rk.blockedUntil, rk.nextRefresh)
		listed := 0
		for g, grp := range rk.groups {
			for bkI, bk := range grp.banks {
				for s, sb := range bk.subs {
					for sl := range sb.slots {
						st := &sb.slots[sl]
						if !st.active || listed >= 8 {
							continue
						}
						fmt.Fprintf(&b, "    open bg%d bk%d sb%d slot%d row %#x (idle %d, rdyPre %d)\n",
							g, bkI, s, sl, st.row, now-st.lastUse, st.rdyPre)
						listed++
					}
				}
			}
		}
	}
	return b.String()
}
