package sim

import (
	"fmt"
	"math"
	"sort"

	"eruca/internal/addrmap"
	"eruca/internal/clock"
	"eruca/internal/memctrl"
	"eruca/internal/snapshot"
	"eruca/internal/workload"
)

// This file serializes a full run into one checkpoint blob and rebuilds
// it. The layout is a flat field stream inside the versioned,
// checksummed snapshot container:
//
//	header      run identity (system, workloads, budget, seed, frag)
//	loopVars    bus / CPU cursors, warmup latch, quiescence progress
//	osmem       buddy allocator + per-process page tables and RNGs
//	workload    per-core generator stream positions
//	caches      every L1 and the shared LLC (tags + LRU + dirty bits)
//	channels    per channel: DRAM timing state, controller queues,
//	            optional auditor history
//	faults      fault-plan cursor
//	bridge      event heap, MSHR waiter identities, spill buffer, MPKI
//	cores       per-core fetch/retire cursors and in-flight reads
//
// Telemetry is not machine state and is not serialized: the DRAM counts
// a resumed run hands its Set are channel state already in the blob,
// while histograms, fast-forward skips and the event rings restart at
// the resume point.
//
// Closures cannot serialize; the blob stores their identities instead
// and restore rebinds them: controller transactions carry Tag (the line
// address) and complete through the bridge's pooled txnDone, and MSHR
// waiters carry (core, registration seq) which restore matches against
// the cores' rebuilt in-flight read completions (reads issue in fetch
// order, so the k-th unready read of a core is the core's k-th
// registered waiter).

// snapshot serializes the whole machine at a loop-top boundary.
func (rs *runState) snapshot(v loopVars) []byte {
	e := &snapshot.Encoder{}

	// Header: enough identity to refuse a blob produced by a different
	// run configuration.
	e.Str(rs.sys.Name)
	e.Int(rs.sys.Geom.Channels)
	e.Int(len(rs.opt.Benches))
	for _, b := range rs.opt.Benches {
		e.Str(b)
	}
	e.I64(rs.opt.Seed)
	e.F64(rs.opt.Frag)
	e.I64(rs.opt.Instrs)
	e.I64(rs.warmup)

	// Loop-carried state.
	e.I64(v.bus)
	e.I64(v.busAtWarm)
	e.I64(v.cpuCycle)
	e.Bool(v.warmed)
	e.I64(v.prevProg)
	e.F64(rs.achieved)

	// OS memory and workload generators.
	rs.mem.Snapshot(e)
	for _, p := range rs.procs {
		p.Snapshot(e)
	}
	for _, g := range rs.gens {
		g.(workload.Stateful).Snapshot(e)
	}
	rs.caches.Snapshot(e)

	// Channels: DRAM timing, controller queues, auditor history.
	e.Bool(len(rs.auditors) > 0)
	for i, ctl := range rs.ctls {
		ctl.Channel().Snapshot(e)
		ctl.Snapshot(e)
		if len(rs.auditors) > 0 {
			rs.auditors[i].Snapshot(e)
		}
	}

	rs.plan.Snapshot(e)
	rs.br.snapshot(e)
	for _, c := range rs.cores {
		c.Snapshot(e)
	}
	return e.Seal()
}

// restore rebuilds the machine from a checkpoint blob. The runState
// must have been constructed from the same Options that produced the
// blob; the serialized header is validated against it.
func (rs *runState) restore(blob []byte) (loopVars, error) {
	var v loopVars
	d, err := snapshot.Open(blob)
	if err != nil {
		return v, err
	}

	// Header validation.
	if name := d.Str(); d.Err() == nil && name != rs.sys.Name {
		return v, fmt.Errorf("checkpoint is for system %q, not %q", name, rs.sys.Name)
	}
	if ch := d.Int(); d.Err() == nil && ch != rs.sys.Geom.Channels {
		return v, fmt.Errorf("checkpoint has %d channels, config has %d", ch, rs.sys.Geom.Channels)
	}
	nb := d.Count(1)
	if err := d.Err(); err != nil {
		return v, err
	}
	if nb != len(rs.opt.Benches) {
		return v, fmt.Errorf("checkpoint has %d workloads, options have %d", nb, len(rs.opt.Benches))
	}
	for i := 0; i < nb; i++ {
		if b := d.Str(); d.Err() == nil && b != rs.opt.Benches[i] {
			return v, fmt.Errorf("checkpoint workload %d is %q, options have %q", i, b, rs.opt.Benches[i])
		}
	}
	if s := d.I64(); d.Err() == nil && s != rs.opt.Seed {
		return v, fmt.Errorf("checkpoint seed %d does not match options seed %d", s, rs.opt.Seed)
	}
	if f := d.F64(); d.Err() == nil && f != rs.opt.Frag {
		return v, fmt.Errorf("checkpoint frag %g does not match options frag %g", f, rs.opt.Frag)
	}
	if n := d.I64(); d.Err() == nil && n != rs.opt.Instrs {
		return v, fmt.Errorf("checkpoint budget %d does not match options budget %d", n, rs.opt.Instrs)
	}
	if w := d.I64(); d.Err() == nil && w != rs.warmup {
		return v, fmt.Errorf("checkpoint warmup %d does not match resolved warmup %d", w, rs.warmup)
	}

	v.bus = d.I64()
	v.busAtWarm = d.I64()
	v.cpuCycle = d.I64()
	v.warmed = d.Bool()
	v.prevProg = d.I64()
	rs.achieved = d.F64()
	// The restored state was checkpointed at v.bus; count the interval
	// from there so a resumed run does not immediately re-emit.
	v.lastCkpt = v.bus
	if err := d.Err(); err != nil {
		return v, err
	}

	if err := rs.mem.Restore(d); err != nil {
		return v, err
	}
	for _, p := range rs.procs {
		if err := p.Restore(d); err != nil {
			return v, err
		}
	}
	for _, g := range rs.gens {
		if err := g.(workload.Stateful).Restore(d); err != nil {
			return v, err
		}
	}
	if err := rs.caches.Restore(d); err != nil {
		return v, err
	}

	hadAudit := d.Bool()
	if err := d.Err(); err != nil {
		return v, err
	}
	if hadAudit != (len(rs.auditors) > 0) {
		return v, fmt.Errorf("checkpoint audit=%v does not match options audit=%v", hadAudit, len(rs.auditors) > 0)
	}
	for i, ctl := range rs.ctls {
		if err := ctl.Channel().Restore(d); err != nil {
			return v, err
		}
		// Queued transactions are rebuilt through the bridge's pool so
		// their Done closures complete line fills exactly as the
		// originals did.
		err := ctl.Restore(d, func(write bool, loc addrmap.Loc, arrive clock.Cycle, tag uint64, hadDone bool) *memctrl.Transaction {
			pt := rs.br.getTxn()
			pt.line = tag
			pt.t.Write = write
			pt.t.Loc = loc
			pt.t.Arrive = arrive
			pt.t.Tag = tag
			return &pt.t
		})
		if err != nil {
			return v, err
		}
		if hadAudit {
			if err := rs.auditors[i].Restore(d); err != nil {
				return v, err
			}
		}
	}

	if err := rs.plan.Restore(d); err != nil {
		return v, err
	}
	if err := rs.br.restore(d); err != nil {
		return v, err
	}
	for _, c := range rs.cores {
		if err := c.Restore(d); err != nil {
			return v, err
		}
	}
	if err := rs.relinkWaiters(); err != nil {
		return v, err
	}
	return v, d.Close()
}

// snapshot serializes the bridge: the deferred-fill event heap (as the
// raw heap array — heap shape is deterministic, so the bytes are too),
// the MSHR waiter identities, the writeback spill buffer and the
// per-core miss counters. The transaction pool and the fatal latch are
// deliberately absent: the pool is bookkeeping, and a latched fatal
// ends the run before the next checkpoint boundary.
func (b *bridge) snapshot(e *snapshot.Encoder) {
	e.Int(len(b.events))
	for _, ev := range b.events {
		e.I64(ev.at)
		e.U64(ev.seq)
		e.U64(ev.line)
	}
	e.U64(b.eventSeq)

	entries := make([]*mshrSlot, 0, b.mshr.len())
	for i := range b.mshr.slots {
		if b.mshr.slots[i].key != 0 {
			entries = append(entries, &b.mshr.slots[i])
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	e.Int(len(entries))
	for _, s := range entries {
		e.U64(s.key - 1)
		e.Int(len(s.waiters))
		for _, w := range s.waiters {
			e.Int(w.core)
			e.U64(w.seq)
		}
	}
	e.U64(b.waiterSeq)

	e.Int(len(b.spill))
	for _, wb := range b.spill {
		e.U64(wb)
	}
	e.Int(len(b.misses))
	for _, m := range b.misses {
		e.U64(m)
	}
}

// restore rebuilds the bridge state. MSHR waiters come back with nil
// completion callbacks; runState.relinkWaiters rebinds them once the
// cores have been restored.
func (b *bridge) restore(d *snapshot.Decoder) error {
	n := d.Count(17)
	if err := d.Err(); err != nil {
		return err
	}
	b.events = b.events[:0]
	for i := 0; i < n; i++ {
		b.events = append(b.events, busEvent{at: d.I64(), seq: d.U64(), line: d.U64()})
	}
	b.eventSeq = d.U64()

	nl := d.Count(10)
	if err := d.Err(); err != nil {
		return err
	}
	b.mshr.clear()
	prevLine := uint64(0)
	for i := 0; i < nl; i++ {
		line := d.U64()
		nw := d.Count(9)
		if err := d.Err(); err != nil {
			return err
		}
		if i > 0 && line <= prevLine {
			return fmt.Errorf("sim: snapshot MSHR lines out of order")
		}
		if line == math.MaxUint64 {
			return fmt.Errorf("sim: snapshot MSHR line %#x out of range", line)
		}
		prevLine = line
		ws := make([]waiter, 0, nw)
		for j := 0; j < nw; j++ {
			w := waiter{core: d.Int(), seq: d.U64()}
			if w.core < 0 || w.core >= len(b.misses) {
				return fmt.Errorf("sim: snapshot MSHR waiter core %d out of range", w.core)
			}
			ws = append(ws, w)
		}
		b.mshr.put(line, ws)
	}
	b.waiterSeq = d.U64()

	ns := d.Count(1)
	if err := d.Err(); err != nil {
		return err
	}
	b.spill = b.spill[:0]
	for i := 0; i < ns; i++ {
		b.spill = append(b.spill, d.U64())
	}
	nm := d.Count(1)
	if err := d.Err(); err != nil {
		return err
	}
	if nm != len(b.misses) {
		return fmt.Errorf("sim: snapshot has %d miss counters, run has %d cores", nm, len(b.misses))
	}
	for i := range b.misses {
		b.misses[i] = d.U64()
	}
	return d.Err()
}

// relinkWaiters rebinds the restored MSHR waiters to the restored
// cores' in-flight read completions. Within one core, waiter
// registration order equals read program order (reads register with the
// memory system in fetch order), so walking all waiters in global
// registration order while consuming each core's pending completions in
// program order reproduces every binding.
func (rs *runState) relinkWaiters() error {
	var refs []*waiter
	for i := range rs.br.mshr.slots {
		ws := rs.br.mshr.slots[i].waiters
		for j := range ws {
			refs = append(refs, &ws[j])
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].seq < refs[j].seq })

	pending := make([][]func(), len(rs.cores))
	cursor := make([]int, len(rs.cores))
	for i, c := range rs.cores {
		pending[i] = c.PendingCompletions()
	}
	for _, r := range refs {
		if cursor[r.core] >= len(pending[r.core]) {
			return fmt.Errorf("sim: snapshot has more MSHR waiters for core %d than pending reads", r.core)
		}
		r.fn = pending[r.core][cursor[r.core]]
		cursor[r.core]++
	}
	for i := range cursor {
		if cursor[i] != len(pending[i]) {
			return fmt.Errorf("sim: core %d has %d pending reads but %d MSHR waiters", i, len(pending[i]), cursor[i])
		}
	}
	return nil
}
