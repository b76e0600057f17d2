package sim

import (
	"eruca/internal/addrmap"
	"eruca/internal/cache"
	"eruca/internal/clock"
	"eruca/internal/config"
	"eruca/internal/memctrl"
	"eruca/internal/osmem"
	"eruca/internal/trace"
)

// bridge connects the cores to the memory system: virtual-to-physical
// translation, the cache hierarchy, MSHR-style miss coalescing, and the
// per-channel memory controllers. It implements cpu.MemSystem.
//
// Timing is magic-fill: the caches update state at access time and
// report the level; DRAM misses complete through deferred events at the
// data-return bus cycle. A load to a line whose fetch is already in
// flight joins the outstanding miss rather than hitting the
// freshly-filled cache line.
type bridge struct {
	sys    *config.System
	mapper *addrmap.Mapper
	procs  []*osmem.Process
	caches *cache.Hierarchy
	ctls   []*memctrl.Controller

	cpuNow int64       // current CPU cycle, updated by the run loop
	busNow clock.Cycle // current bus cycle
	ratio  int64
	busNS  float64

	// events defers line-fill completions to their data-return bus
	// cycle: a min-heap ordered by (cycle, insertion sequence) so that
	// same-cycle fills fire in insertion order, exactly like the previous
	// per-cycle slice map, while exposing an O(1) next-event bound for
	// the fast-forwarding run loop.
	events   []busEvent
	eventSeq uint64

	// mshr coalesces outstanding line fetches: line address -> waiting
	// load completions. Waiters carry their core and a global
	// registration sequence so checkpoints can re-link them to the
	// owning core's in-flight reads on restore (closures themselves
	// cannot serialize). waiterFree recycles the waiter lists of filled
	// entries, so a miss allocates no list of its own.
	mshr       mshrTable
	waiterSeq  uint64
	waiterFree [][]waiter

	// spill buffers dirty writebacks that did not fit in a write queue.
	spill []uint64

	// txnFree recycles controller transactions together with their
	// pre-bound Done closures, eliminating the two per-transaction
	// allocations on the DRAM path.
	txnFree []*pooledTxn

	capture func(trace.Record)

	lineShift uint

	// Per-core demand misses reaching DRAM (for MPKI).
	misses []uint64

	// fatal latches the first unrecoverable bridge-side error (OOM from
	// the OS memory model). The run loop polls it and ends the run
	// gracefully with partial statistics.
	fatal error
}

// busEvent is one deferred line fill.
type busEvent struct {
	at   clock.Cycle
	seq  uint64
	line uint64
}

// waiter is one coalesced load awaiting a line fill. core and seq are
// the serializable identity of the closure: the k-th unready read of a
// core (program order) is the core's k-th registered waiter
// (registration order), which is how restore rebinds fn.
type waiter struct {
	core int
	seq  uint64
	fn   func()
}

// pooledTxn owns one recyclable controller transaction.
type pooledTxn struct {
	t    memctrl.Transaction
	line uint64
}

const spillLimit = 64

func newBridge(sys *config.System, mapper *addrmap.Mapper, procs []*osmem.Process,
	caches *cache.Hierarchy, ctls []*memctrl.Controller, capture func(trace.Record)) *bridge {
	ls := uint(0)
	for n := sys.Geom.LineBytes; n > 1; n >>= 1 {
		ls++
	}
	return &bridge{
		sys:       sys,
		mapper:    mapper,
		procs:     procs,
		caches:    caches,
		ctls:      ctls,
		ratio:     int64(sys.CPU.ClockRatio),
		busNS:     sys.Bus.PeriodNS(),
		mshr:      newMSHRTable(len(ctls) * sys.Ctrl.ReadQueueDepth),
		capture:   capture,
		lineShift: ls,
		misses:    make([]uint64, sys.CPU.Cores),
	}
}

// Access implements cpu.MemSystem.
func (b *bridge) Access(core int, va uint64, write bool, done func()) (accept, pending bool, doneAt int64) {
	// Give each core a disjoint virtual address space.
	pa, err := b.procs[core].Translate(va)
	if err != nil {
		// Physical memory exhausted: latch the error and refuse the
		// access. The core treats this as backpressure and retries; the
		// run loop notices fatal and ends the run with partial stats.
		if b.fatal == nil {
			b.fatal = err
		}
		return false, false, 0
	}
	line := pa >> b.lineShift
	loc := b.mapper.Map(line << b.lineShift)

	// Backpressure: a miss may need a read-queue slot and produce
	// writebacks; refuse up front when either could overflow.
	if len(b.spill) >= spillLimit || !b.ctls[loc.Channel].CanAccept(false) {
		return false, false, 0
	}

	out := b.caches.Access(core, line, write)
	b.spill = append(b.spill, out.Writebacks()...)

	// Join an outstanding fetch of the same line regardless of the
	// cache's (already filled) view.
	if waiters := b.mshr.find(line); waiters != nil {
		if write {
			return true, false, 0
		}
		b.waiterSeq++
		*waiters = append(*waiters, waiter{core: core, seq: b.waiterSeq, fn: done})
		return true, true, 0
	}

	switch out.Level {
	case cache.L1:
		return true, false, b.cpuNow + int64(b.sys.CPU.L1LatencyCK)
	case cache.LLC:
		return true, false, b.cpuNow + int64(b.sys.CPU.LLCLatencyCK)
	}

	// DRAM fetch (demand load or store write-allocate).
	b.misses[core]++
	var waiters []waiter
	if n := len(b.waiterFree); n > 0 {
		waiters = b.waiterFree[n-1]
		b.waiterFree = b.waiterFree[:n-1]
	}
	if !write && done != nil {
		b.waiterSeq++
		waiters = append(waiters, waiter{core: core, seq: b.waiterSeq, fn: done})
	}
	b.mshr.put(line, waiters)
	b.enqueue(line, loc, false)
	return true, !write, 0
}

// getTxn takes a transaction from the pool or allocates one with its
// Done closure pre-bound.
func (b *bridge) getTxn() *pooledTxn {
	if n := len(b.txnFree); n > 0 {
		pt := b.txnFree[n-1]
		b.txnFree = b.txnFree[:n-1]
		return pt
	}
	pt := &pooledTxn{}
	pt.t.Done = func(dataAt clock.Cycle) { b.txnDone(pt, dataAt) }
	return pt
}

// txnDone completes one pooled transaction: reads schedule their line
// fill at the data-return cycle, then the record is recycled.
func (b *bridge) txnDone(pt *pooledTxn, dataAt clock.Cycle) {
	if !pt.t.Write {
		if dataAt <= b.busNow {
			dataAt = b.busNow + 1
		}
		b.pushEvent(dataAt, pt.line)
	}
	b.txnFree = append(b.txnFree, pt)
}

// enqueue submits a line transaction, mapped to loc, to its channel
// controller. The caller has verified capacity for reads; writes come
// from the spill buffer which retries.
func (b *bridge) enqueue(line uint64, loc addrmap.Loc, write bool) {
	pa := line << b.lineShift
	ctl := b.ctls[loc.Channel]
	pt := b.getTxn()
	pt.line = line
	pt.t.Write = write
	pt.t.Loc = loc
	pt.t.Arrive = b.busNow
	pt.t.Tag = line
	ctl.Enqueue(&pt.t)
	if b.capture != nil {
		b.capture(trace.Record{NS: float64(b.busNow) * b.busNS, PA: pa, Write: write})
	}
}

// fill completes an outstanding line fetch, waking all coalesced loads,
// and recycles the entry's waiter list.
func (b *bridge) fill(line uint64) {
	waiters := b.mshr.remove(line)
	for _, w := range waiters {
		w.fn()
	}
	if cap(waiters) > 0 {
		b.waiterFree = append(b.waiterFree, waiters[:0])
	}
}

// drainSpill pushes buffered writebacks into their write queues,
// reporting how many it moved.
func (b *bridge) drainSpill() int {
	moved := 0
	kept := b.spill[:0]
	for _, wb := range b.spill {
		if loc := b.mapper.Map(wb << b.lineShift); b.ctls[loc.Channel].CanAccept(true) {
			b.enqueue(wb, loc, true)
			moved++
		} else {
			kept = append(kept, wb)
		}
	}
	b.spill = kept
	return moved
}

// pushEvent schedules a line fill; same-cycle fills preserve insertion
// order via the sequence number.
func (b *bridge) pushEvent(at clock.Cycle, line uint64) {
	b.eventSeq++
	b.events = append(b.events, busEvent{at: at, seq: b.eventSeq, line: line})
	// Sift up.
	i := len(b.events) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(b.events[i], b.events[p]) {
			break
		}
		b.events[i], b.events[p] = b.events[p], b.events[i]
		i = p
	}
}

func eventLess(a, c busEvent) bool {
	if a.at != c.at {
		return a.at < c.at
	}
	return a.seq < c.seq
}

// popEvent removes and returns the earliest event's line.
func (b *bridge) popEvent() uint64 {
	top := b.events[0]
	last := len(b.events) - 1
	b.events[0] = b.events[last]
	b.events = b.events[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(b.events) && eventLess(b.events[l], b.events[s]) {
			s = l
		}
		if r < len(b.events) && eventLess(b.events[r], b.events[s]) {
			s = r
		}
		if s == i {
			break
		}
		b.events[i], b.events[s] = b.events[s], b.events[i]
		i = s
	}
	return top.line
}

// nextEventAt reports the earliest scheduled fill cycle, if any.
func (b *bridge) nextEventAt() (clock.Cycle, bool) {
	if len(b.events) == 0 {
		return 0, false
	}
	return b.events[0].at, true
}

// fireEvents runs completions scheduled for the current bus cycle,
// reporting how many fired.
func (b *bridge) fireEvents() int {
	n := 0
	for len(b.events) > 0 && b.events[0].at <= b.busNow {
		b.fill(b.popEvent())
		n++
	}
	return n
}
