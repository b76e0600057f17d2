package dram

import (
	"fmt"

	"eruca/internal/clock"
	"eruca/internal/config"
	"eruca/internal/core"
	"eruca/internal/diag"
	"eruca/internal/telemetry"
)

// Channel is the timing engine for one DRAM channel.
type Channel struct {
	sys *config.System
	ct  config.CycleTiming

	ranks []*rank

	// Chip-global data bus occupancy (the external channel data bus).
	busBusyUntil clock.Cycle
	busLastRead  bool
	lastCol      clock.Cycle // channel-level tCCD_S base

	// colVer is the channel's Plan stamp for column timing: every RD/WR
	// moves it, since each one changes tCCD_S, the data bus, a DDB
	// window or a tWTR base that another bank's RD/WR reads.
	colVer uint64

	// stamp moves in invalidatePlans, at each change of channel state
	// made outside Issue and MaintainRefresh (memctrl's idle skip).
	stamp uint64

	planes  *core.PlaneLogic // nil when the scheme has no planes
	masa    core.MASASlots
	hasMASA bool
	stacked bool

	slotsPerSub int
	subsPerBank int
	banksPerGrp int
	rowBits     int

	obs []Observer

	// onViolation, when set, receives protocol violations (a controller
	// bug or injected fault) instead of the default panic, letting a
	// checker in Fail/Log mode keep the process alive.
	onViolation func(Violation)

	// tel, when set, receives a typed telemetry event and histogram
	// observations per issued command; the counts stay in Stats. Purely
	// observational: no timing decision reads it, so attaching telemetry
	// can never change the command stream. nil costs one comparison per
	// Issue.
	tel    *telemetry.Set
	chanID uint8
	telRun uint16

	Stats Stats
}

// SetTelemetry attaches a telemetry Set; events are tagged with chanID
// and the run index from telemetry.Set.BeginRun. Pass nil to detach.
func (ch *Channel) SetTelemetry(t *telemetry.Set, chanID int, run uint16) {
	ch.tel = t
	ch.chanID = uint8(chanID)
	ch.telRun = run
}

// Attach registers an observer (protocol auditor / checker) that sees
// every issued command, including the internal refresh sequence.
// Multiple observers may be attached; they are notified in order.
func (ch *Channel) Attach(o Observer) { ch.obs = append(ch.obs, o) }

// OnViolation installs a handler for protocol violations detected by the
// timing engine itself. Without a handler the engine panics — the
// historical behavior, appropriate when any violation is a simulator
// bug. With a handler installed the engine reports the violation and
// continues best-effort, which is what the Fail/Log checker modes and
// the fault-injection harness rely on.
func (ch *Channel) OnViolation(h func(Violation)) { ch.onViolation = h }

// violate raises one protocol violation through the configured handler,
// or panics with the structured Violation when none is installed.
func (ch *Channel) violate(at clock.Cycle, rule string, c Command, format string, args ...any) {
	v := Violation{At: at, Rule: rule, Cmd: c, Msg: fmt.Sprintf(format, args...)}
	if ch.onViolation != nil {
		ch.onViolation(v)
		return
	}
	panic(v)
}

// observe fans one issued command out to every attached observer.
func (ch *Channel) observe(c Command, at clock.Cycle) {
	for _, o := range ch.obs {
		o.Observe(c, at)
	}
}

// NewChannel builds a channel for the system configuration. rowBits is
// the per-sub-bank row width produced by the address mapper.
func NewChannel(sys *config.System, rowBits int) *Channel {
	sch := sys.Scheme
	ch := &Channel{
		sys:         sys,
		ct:          sys.CT,
		lastCol:     never,
		subsPerBank: sch.SubBanksPerBank(),
		banksPerGrp: sys.Geom.BanksPerGroup,
		slotsPerSub: 1,
		rowBits:     rowBits,
	}
	if sch.Mode == config.SubBankMASA {
		ch.hasMASA = true
		ch.stacked = sch.MASAStacked
		ch.slotsPerSub = sch.MASAGroups
		ch.masa = core.NewMASASlots(sch.MASAGroups, rowBits)
	}
	if sch.Mode == config.SubBankPaired {
		ch.banksPerGrp /= 2
	}
	if sch.HasPlanes() {
		ch.planes = core.NewPlaneLogic(sch, rowBits)
	}
	for r := 0; r < sys.Geom.Ranks; r++ {
		rk := &rank{
			lastAct:     never,
			lastWrData:  never,
			nextRefresh: ch.ct.REFI * clock.Cycle(r+1) / clock.Cycle(sys.Geom.Ranks),
		}
		if !sys.Ctrl.RefreshEnabled {
			rk.nextRefresh = never * -1 // effectively infinity
		}
		for i := range rk.faw {
			rk.faw[i] = never
		}
		if sch.DDBGroupPairs {
			rk.pairDDB = make([]core.DDBWindow, sys.Geom.BankGroups/2)
			for i := range rk.pairDDB {
				rk.pairDDB[i] = core.NewDDBWindow(ch.ct.TwoCommandWindowsOn, ch.ct.TCW, ch.ct.TWTRW)
			}
		}
		for g := 0; g < sys.Geom.BankGroups; g++ {
			grp := &group{
				lastCol:    never,
				lastWrData: never,
				ddb:        core.NewDDBWindow(sch.DDB && ch.ct.TwoCommandWindowsOn, ch.ct.TCW, ch.ct.TWTRW),
			}
			for b := 0; b < ch.banksPerGrp; b++ {
				bk := &bank{lastCol: never, lastWrData: never}
				for s := 0; s < ch.subsPerBank; s++ {
					bk.subs = append(bk.subs, newSubBank(ch.slotsPerSub))
				}
				grp.banks = append(grp.banks, bk)
			}
			rk.groups = append(rk.groups, grp)
		}
		ch.ranks = append(ch.ranks, rk)
	}
	return ch
}

// path walks from the channel to the rank, group and bank a command
// addresses.
func (ch *Channel) path(c *Command) (*rank, *group, *bank) {
	rk := ch.ranks[c.Rank]
	grp := rk.groups[c.Group]
	return rk, grp, grp.banks[c.Bank]
}

// ddbWindow selects the two-command window covering a column command:
// per bank group for Combo DDB, per vertically-adjacent group pair for
// the non-Combo variant.
func (ch *Channel) ddbWindow(rk *rank, grpIdx int, grp *group) *core.DDBWindow {
	if len(rk.pairDDB) > 0 {
		return &rk.pairDDB[grpIdx%len(rk.pairDDB)]
	}
	return &grp.ddb
}

// SlotFor returns the row-buffer slot a row occupies in a sub-bank (the
// MASA subarray group, or 0 for single-row-buffer schemes).
func (ch *Channel) SlotFor(row uint32) int {
	if !ch.hasMASA {
		return 0
	}
	return ch.masa.Slot(row)
}

// EarliestIssue reports the earliest cycle at which the command could
// legally issue given current state. It does not mutate state. The
// result is a lower bound that is exact for the current state; issuing
// other commands first can push it later.
func (ch *Channel) EarliestIssue(c Command) clock.Cycle {
	rk, grp, bk := ch.path(&c)
	return ch.earliest(&c, rk, grp, bk)
}

// earliest is EarliestIssue for a command whose rank, group and bank
// the caller has already looked up.
func (ch *Channel) earliest(c *Command, rk *rank, grp *group, bk *bank) clock.Cycle {
	sb := bk.subs[c.Sub]
	slot := &sb.slots[c.Slot]

	if rk.refPending {
		return rk.blockedUntil + 1<<40 // unavailable until refresh resolves
	}
	e := rk.blockedUntil

	switch c.Kind {
	case CmdACT:
		e = maxc(e, slot.rdyAct, rk.lastAct+ch.ct.RRD, rk.faw[rk.fawIdx]+ch.ct.FAW)
	case CmdPRE:
		e = maxc(e, slot.rdyPre)
	case CmdRD, CmdWR:
		read := c.Kind == CmdRD
		e = maxc(e, slot.rdyCol)
		// GBLs within the bank are busy one DRAM core clock per access:
		// same-bank column commands are always tCCD_L apart, even across
		// sub-banks (the paper's timing table).
		e = maxc(e, bk.lastCol+ch.ct.CCDL)
		// Channel-wide minimum column-to-column spacing.
		e = maxc(e, ch.lastCol+ch.ct.CCDS)
		// Bank-group bus: a single shared bus imposes tCCD_L/tWTR_L per
		// group; DDB replaces that with the two-command windows.
		if ch.sys.Scheme.DDB {
			e = maxc(e, ch.ddbWindow(rk, c.Group, grp).EarliestColumn(read))
		} else if ch.sys.Scheme.BankGrouping {
			e = maxc(e, grp.lastCol+ch.ct.CCDL)
			if read {
				e = maxc(e, grp.lastWrData+ch.ct.WTRL)
			}
		}
		if read {
			// Write-to-read turnaround: rank-wide tWTR_S, same-sub-bank
			// tWTR_L (internal write recovery near the array).
			e = maxc(e, rk.lastWrData+ch.ct.WTRS, bk.lastWrData+ch.ct.WTRL)
		}
		// External data-bus occupancy (and direction turnaround).
		lat := ch.ct.CWL
		if read {
			lat = ch.ct.CL
		}
		busFree := ch.busBusyUntil
		if ch.busLastRead != read {
			busFree += ch.ct.RTW
		}
		if busFree-lat > e {
			e = busFree - lat
		}
		// MASA: switching the subarray selected for the column path
		// costs tSA.
		if ch.slotsPerSub > 1 && sb.sel != c.Slot {
			e += ch.ct.SA
		}
	case CmdPREA, CmdREF:
		// Managed internally by MaintainRefresh.
		return rk.blockedUntil
	}
	return e
}

// Issue commits a command at the given cycle. A command that violates a
// timing constraint is a controller bug: without an OnViolation handler
// the engine panics with the structured Violation; with one it reports
// the violation and applies the command best-effort so a Log/Fail
// checker can keep the run alive.
func (ch *Channel) Issue(c Command, now clock.Cycle) {
	rk, grp, bk := ch.path(&c)
	if e := ch.earliest(&c, rk, grp, bk); now < e {
		ch.violate(now, "timing", c, "dram: %v issued at %d, earliest legal %d", c, now, e)
	}
	sb := bk.subs[c.Sub]
	slot := &sb.slots[c.Slot]
	rk.observe(now, &ch.Stats)
	ch.observe(c, now)
	bk.ver++

	switch c.Kind {
	case CmdACT:
		if slot.active {
			ch.violate(now, "ACT-on-open", c, "dram: ACT on open slot: %v", c)
			// Best-effort continue: re-open the slot with the new row.
			sb.openCount--
			rk.openSubs--
		}
		prevAct := rk.lastAct
		slot.active = true
		slot.row = c.Row
		slot.rdyCol = now + ch.ct.RCD
		slot.rdyPre = now + ch.ct.RAS
		slot.rdyAct = now + ch.ct.RC
		slot.lastUse = now
		slot.actAt = now
		rk.lastAct = now
		rk.faw[rk.fawIdx] = now
		rk.fawIdx = (rk.fawIdx + 1) % len(rk.faw)
		rk.actVer++
		bk.rowVer++
		sb.openCount++
		rk.openSubs++
		ch.Stats.Acts++
		if c.EWLRHit {
			ch.Stats.ActsEWLRHit++
		}
		if c.RAPRedirect {
			ch.Stats.RAPRedirects++
		}
		if ch.tel != nil {
			ch.telACT(c, now, prevAct)
		}
	case CmdPRE:
		wasActive := slot.active
		if !slot.active {
			ch.violate(now, "PRE-on-closed", c, "dram: PRE on closed slot: %v", c)
			// Best-effort continue: account the spurious PRE as a no-op.
			sb.openCount++
			rk.openSubs++
		}
		slot.active = false
		slot.rdyAct = maxc(slot.rdyAct, now+ch.ct.RP)
		slot.rdyCol = never
		slot.rdyPre = never
		bk.rowVer++
		sb.openCount--
		rk.openSubs--
		ch.Stats.Pres++
		if c.Partial {
			ch.Stats.PartialPres++
		}
		if c.PlaneConflict {
			ch.Stats.PlaneConfPre++
		}
		if ch.tel != nil {
			ch.telPRE(c, now, wasActive, slot.actAt)
		}
	case CmdRD, CmdWR:
		read := c.Kind == CmdRD
		if !slot.active || slot.row != c.Row {
			ch.violate(now, "row-mismatch", c, "dram: column command to closed/mismatched row: %v (open=%v row=%#x)", c, slot.active, slot.row)
		}
		// DDB attribution: how many bus cycles later would the single
		// shared bank-group bus (tCCD_L, and tWTR_L before a read) have
		// forced this column command? Computed against pre-issue state —
		// purely observational, never feeds a timing decision.
		var ddbSaved clock.Cycle
		if ch.sys.Scheme.DDB {
			bound := grp.lastCol + ch.ct.CCDL
			if read {
				bound = maxc(bound, grp.lastWrData+ch.ct.WTRL)
			}
			if bound > now {
				ddbSaved = bound - now
			}
		}
		bk.lastCol = now
		bk.colCount++
		sb.sel = c.Slot
		grp.lastCol = now
		ch.lastCol = now
		ch.colVer++
		slot.lastUse = now
		ch.ddbWindow(rk, c.Group, grp).Record(now, read)
		if read {
			slot.rdyPre = maxc(slot.rdyPre, now+ch.ct.RTP)
			ch.busBusyUntil = now + ch.ct.CL + ch.ct.Burst
			ch.Stats.Reads++
		} else {
			dataEnd := now + ch.ct.CWL + ch.ct.Burst
			slot.rdyPre = maxc(slot.rdyPre, dataEnd+ch.ct.WR)
			grp.lastWrData = dataEnd
			rk.lastWrData = dataEnd
			bk.lastWrData = dataEnd
			ch.busBusyUntil = dataEnd
			ch.Stats.Writes++
		}
		ch.busLastRead = read
		ch.Stats.DDBSavedCK += uint64(ddbSaved)
		if ch.tel != nil {
			ch.telCol(c, now, ddbSaved)
		}
	default:
		diag.Invariantf("dram: Issue of managed command %v", c)
	}
}

// Stamp reports the channel stamp, which moves whenever state changes
// outside Issue and MaintainRefresh: at the fault hooks that change
// rows or timing, and at Restore. A controller caching a decision
// against it must account for its own Issue calls and bound the cache
// by NextRefreshEvent.
func (ch *Channel) Stamp() uint64 { return ch.stamp }

// ReadDataAt reports the cycle at which read data issued at `at`
// completes on the bus.
func (ch *Channel) ReadDataAt(at clock.Cycle) clock.Cycle { return at + ch.ct.CL + ch.ct.Burst }

// WriteDataAt reports the cycle at which write data issued at `at` has
// been transferred.
func (ch *Channel) WriteDataAt(at clock.Cycle) clock.Cycle { return at + ch.ct.CWL + ch.ct.Burst }

// Available reports whether the rank accepts new transactions (not
// refreshing and no refresh pending).
func (ch *Channel) Available(rankID int, now clock.Cycle) bool {
	rk := ch.ranks[rankID]
	return !rk.refPending && now >= rk.blockedUntil
}

// MaintainRefresh advances per-rank refresh state. The controller calls
// it once per cycle before scheduling. While a refresh is pending the
// rank stops accepting commands, open rows are precharged with PREA
// once each meets tRAS, tRTP and tWR, and REF, issued once every row is
// tRP past the PRE or PREA that closed it, blocks the rank for tRFC.
func (ch *Channel) MaintainRefresh(now clock.Cycle) {
	if !ch.sys.Ctrl.RefreshEnabled {
		return
	}
	for _, rk := range ch.ranks {
		if now < rk.blockedUntil {
			continue
		}
		if !rk.refPending {
			if now >= rk.nextRefresh {
				rk.refPending = true
				rk.preaAt = never
				rk.refVer++
			} else {
				continue
			}
		}
		if rk.openSubs > 0 && rk.preaAt == never {
			// Wait for every open slot to become precharge-able, then
			// PREA.
			ready := clock.Cycle(0)
			for _, g := range rk.groups {
				for _, b := range g.banks {
					for _, s := range b.subs {
						for i := range s.slots {
							if s.slots[i].active {
								ready = maxc(ready, s.slots[i].rdyPre)
							}
						}
					}
				}
			}
			if now < ready {
				continue
			}
			rk.observe(now, &ch.Stats)
			for _, g := range rk.groups {
				for _, b := range g.banks {
					for _, s := range b.subs {
						for i := range s.slots {
							if s.slots[i].active {
								s.slots[i].active = false
								s.slots[i].rdyAct = now + ch.ct.RP
								s.slots[i].rdyCol = never
								s.slots[i].rdyPre = never
								s.openCount = 0
								ch.Stats.Pres++
								if ch.tel != nil {
									ch.tel.C.RowOpen.Observe(now - s.slots[i].actAt)
								}
							}
						}
					}
				}
			}
			rk.openSubs = 0
			ch.Stats.PreAlls++
			rk.preaAt = now
			rk.refVer++
			prea := Command{Kind: CmdPREA, Rank: rankIndex(ch, rk)}
			ch.observe(prea, now)
			if ch.tel != nil {
				ch.tel.Emit(ch.telEvent(prea, now))
			}
			continue
		}
		// All closed: REF once every slot is tRP past the PRE or PREA
		// that closed it.
		if now >= refReady(rk) {
			rk.observe(now, &ch.Stats)
			rk.blockedUntil = now + ch.ct.RFC
			rk.nextRefresh += ch.ct.REFI
			rk.refPending = false
			rk.preaAt = never
			rk.refVer++
			ch.Stats.Refreshes++
			ref := Command{Kind: CmdREF, Rank: rankIndex(ch, rk)}
			ch.observe(ref, now)
			if ch.tel != nil {
				ch.tel.Emit(ch.telEvent(ref, now))
			}
		}
	}
}

// farFuture is a sentinel "no event" cycle bound, small enough to add
// slack to without overflowing.
const farFuture = clock.Cycle(1) << 60

// NextRefreshEvent reports a lower bound (strictly after now) on the
// next cycle at which MaintainRefresh would change rank state: a refresh
// falling due, the pre-refresh PREA becoming legal, REF becoming legal
// tRP after the last PRE or PREA, or a tRFC blackout ending. It mirrors the
// MaintainRefresh decision tree without mutating state, so the run loop
// can fast-forward quiescent windows without perturbing the refresh
// command stream.
func (ch *Channel) NextRefreshEvent(now clock.Cycle) clock.Cycle {
	if !ch.sys.Ctrl.RefreshEnabled {
		return farFuture
	}
	next := farFuture
	upd := func(t clock.Cycle) {
		if t <= now {
			t = now + 1
		}
		if t < next {
			next = t
		}
	}
	for _, rk := range ch.ranks {
		if now < rk.blockedUntil {
			upd(rk.blockedUntil)
			continue
		}
		if !rk.refPending {
			upd(rk.nextRefresh)
			continue
		}
		if rk.openSubs > 0 && rk.preaAt == never {
			// Waiting for every open slot to become precharge-able.
			ready := clock.Cycle(0)
			for _, g := range rk.groups {
				for _, b := range g.banks {
					for _, s := range b.subs {
						for i := range s.slots {
							if s.slots[i].active {
								ready = maxc(ready, s.slots[i].rdyPre)
							}
						}
					}
				}
			}
			upd(ready)
			continue
		}
		upd(refReady(rk))
	}
	return next
}

// refReady reports the first cycle at which the rank, all rows closed,
// can take REF: the latest rdyAct of its slots, since a slot's rdyAct
// holds tRP after its last PRE or PREA.
func refReady(rk *rank) clock.Cycle {
	ready := clock.Cycle(0)
	for _, g := range rk.groups {
		for _, b := range g.banks {
			for _, s := range b.subs {
				for i := range s.slots {
					ready = maxc(ready, s.slots[i].rdyAct)
				}
			}
		}
	}
	return ready
}

// Finish integrates background-energy accounting up to the given cycle.
func (ch *Channel) Finish(now clock.Cycle) {
	for _, rk := range ch.ranks {
		rk.observe(now, &ch.Stats)
	}
}

func rankIndex(ch *Channel, rk *rank) int {
	for i, r := range ch.ranks {
		if r == rk {
			return i
		}
	}
	return 0
}

func maxc(vals ...clock.Cycle) clock.Cycle {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
