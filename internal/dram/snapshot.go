package dram

import (
	"fmt"

	"eruca/internal/clock"
	"eruca/internal/snapshot"
)

// Snapshot serializes the channel's full mutable timing state: bus
// occupancy, per-rank ACT/FAW/refresh/energy bookkeeping, per-group and
// per-bank column spacing, DDB two-command windows, every sub-bank's
// row slots (which together encode the plane-latch and EWLR state — the
// latches hold values derived from the open rows), and the Stats
// block. The configuration-derived fields (sys, timings, plane logic,
// MASA slotting) are rebuilt by NewChannel on restore.
func (ch *Channel) Snapshot(e *snapshot.Encoder) {
	e.I64(int64(ch.busBusyUntil))
	e.Bool(ch.busLastRead)
	e.I64(int64(ch.lastCol))
	ch.snapshotStats(e)
	e.Int(len(ch.ranks))
	for _, rk := range ch.ranks {
		rk.snapshot(e)
	}
}

func (ch *Channel) snapshotStats(e *snapshot.Encoder) {
	s := &ch.Stats
	for _, v := range []uint64{
		s.Acts, s.ActsEWLRHit, s.Reads, s.Writes, s.Pres, s.PartialPres,
		s.PlaneConfPre, s.RAPRedirects, s.DDBSavedCK, s.Refreshes, s.PreAlls,
		s.ActiveCycles, s.AllCycles,
	} {
		e.U64(v)
	}
}

func (ch *Channel) restoreStats(d *snapshot.Decoder) {
	s := &ch.Stats
	for _, p := range []*uint64{
		&s.Acts, &s.ActsEWLRHit, &s.Reads, &s.Writes, &s.Pres, &s.PartialPres,
		&s.PlaneConfPre, &s.RAPRedirects, &s.DDBSavedCK, &s.Refreshes, &s.PreAlls,
		&s.ActiveCycles, &s.AllCycles,
	} {
		*p = d.U64()
	}
}

func (rk *rank) snapshot(e *snapshot.Encoder) {
	e.I64(int64(rk.lastAct))
	for _, f := range rk.faw {
		e.I64(int64(f))
	}
	e.Int(rk.fawIdx)
	e.Int(rk.openSubs)
	e.I64(int64(rk.lastWrData))
	e.I64(int64(rk.nextRefresh))
	e.I64(int64(rk.blockedUntil))
	e.Bool(rk.refPending)
	e.I64(int64(rk.preaAt))
	e.I64(int64(rk.lastEnergyAt))
	e.U64(rk.activeAccum)
	e.Int(len(rk.pairDDB))
	for i := range rk.pairDDB {
		rk.pairDDB[i].Snapshot(e)
	}
	e.Int(len(rk.groups))
	for _, grp := range rk.groups {
		grp.snapshot(e)
	}
}

func (grp *group) snapshot(e *snapshot.Encoder) {
	e.I64(int64(grp.lastCol))
	e.I64(int64(grp.lastWrData))
	grp.ddb.Snapshot(e)
	e.Int(len(grp.banks))
	for _, bk := range grp.banks {
		bk.snapshot(e)
	}
}

func (bk *bank) snapshot(e *snapshot.Encoder) {
	e.I64(int64(bk.lastCol))
	e.I64(int64(bk.lastWrData))
	e.U64(bk.colCount)
	e.Int(len(bk.subs))
	for _, sb := range bk.subs {
		e.Int(sb.sel)
		e.Int(sb.openCount)
		e.Int(len(sb.slots))
		for i := range sb.slots {
			sl := &sb.slots[i]
			e.Bool(sl.active)
			e.U32(sl.row)
			e.I64(int64(sl.rdyAct))
			e.I64(int64(sl.rdyCol))
			e.I64(int64(sl.rdyPre))
			e.I64(int64(sl.lastUse))
			e.I64(int64(sl.actAt))
		}
	}
}

// Restore rebuilds the channel state from a Snapshot stream. The
// channel must have been constructed with NewChannel over the same
// system configuration (geometry mismatches are detected and reported).
func (ch *Channel) Restore(d *snapshot.Decoder) error {
	ch.invalidatePlans()
	ch.busBusyUntil = clock.Cycle(d.I64())
	ch.busLastRead = d.Bool()
	ch.lastCol = clock.Cycle(d.I64())
	ch.restoreStats(d)
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(ch.ranks) {
		return fmt.Errorf("dram: snapshot has %d ranks, channel has %d", n, len(ch.ranks))
	}
	for _, rk := range ch.ranks {
		if err := rk.restore(d); err != nil {
			return err
		}
	}
	return d.Err()
}

func (rk *rank) restore(d *snapshot.Decoder) error {
	rk.lastAct = clock.Cycle(d.I64())
	for i := range rk.faw {
		rk.faw[i] = clock.Cycle(d.I64())
	}
	rk.fawIdx = d.Int()
	rk.openSubs = d.Int()
	rk.lastWrData = clock.Cycle(d.I64())
	rk.nextRefresh = clock.Cycle(d.I64())
	rk.blockedUntil = clock.Cycle(d.I64())
	rk.refPending = d.Bool()
	rk.preaAt = clock.Cycle(d.I64())
	rk.lastEnergyAt = clock.Cycle(d.I64())
	rk.activeAccum = d.U64()
	np := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if np != len(rk.pairDDB) {
		return fmt.Errorf("dram: snapshot has %d pair-DDB windows, rank has %d", np, len(rk.pairDDB))
	}
	for i := range rk.pairDDB {
		rk.pairDDB[i].Restore(d)
	}
	ng := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if ng != len(rk.groups) {
		return fmt.Errorf("dram: snapshot has %d groups, rank has %d", ng, len(rk.groups))
	}
	if rk.fawIdx < 0 || rk.fawIdx >= len(rk.faw) {
		return fmt.Errorf("dram: snapshot fawIdx %d out of range", rk.fawIdx)
	}
	for _, grp := range rk.groups {
		if err := grp.restore(d); err != nil {
			return err
		}
	}
	return d.Err()
}

func (grp *group) restore(d *snapshot.Decoder) error {
	grp.lastCol = clock.Cycle(d.I64())
	grp.lastWrData = clock.Cycle(d.I64())
	grp.ddb.Restore(d)
	nb := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nb != len(grp.banks) {
		return fmt.Errorf("dram: snapshot has %d banks, group has %d", nb, len(grp.banks))
	}
	for _, bk := range grp.banks {
		if err := bk.restore(d); err != nil {
			return err
		}
	}
	return d.Err()
}

func (bk *bank) restore(d *snapshot.Decoder) error {
	bk.lastCol = clock.Cycle(d.I64())
	bk.lastWrData = clock.Cycle(d.I64())
	bk.colCount = d.U64()
	ns := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if ns != len(bk.subs) {
		return fmt.Errorf("dram: snapshot has %d sub-banks, bank has %d", ns, len(bk.subs))
	}
	for _, sb := range bk.subs {
		sb.sel = d.Int()
		sb.openCount = d.Int()
		nsl := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if nsl != len(sb.slots) {
			return fmt.Errorf("dram: snapshot has %d row slots, sub-bank has %d", nsl, len(sb.slots))
		}
		if sb.sel < 0 || sb.sel >= len(sb.slots) {
			return fmt.Errorf("dram: snapshot slot selector %d out of range", sb.sel)
		}
		for i := range sb.slots {
			sl := &sb.slots[i]
			sl.active = d.Bool()
			sl.row = d.U32()
			sl.rdyAct = clock.Cycle(d.I64())
			sl.rdyCol = clock.Cycle(d.I64())
			sl.rdyPre = clock.Cycle(d.I64())
			sl.lastUse = clock.Cycle(d.I64())
			sl.actAt = clock.Cycle(d.I64())
		}
	}
	return d.Err()
}
