package cpu

import (
	"fmt"

	"eruca/internal/snapshot"
)

// Snapshot serializes the core's architectural state: fetch/retire
// cursors, the live in-flight read window (positions, readiness,
// completion timestamps), the pending decoded op, and every counter.
// The retired prefix of the read window and the free list are pool
// bookkeeping, not state, and are not serialized. Completion closures
// are rebuilt by Restore; a restored core's unready reads are re-linked
// to the memory system's restored MSHR waiters through
// PendingCompletions (the program-order/registration-order bijection:
// reads issue in fetch order, so the k-th unready read is the k-th live
// waiter this core registered).
func (c *Core) Snapshot(e *snapshot.Encoder) {
	e.I64(c.fetched)
	e.I64(c.retired)
	live := c.reads[c.readHead:]
	e.Int(len(live))
	for _, r := range live {
		e.I64(r.pos)
		e.Bool(r.ready)
		e.I64(r.readyAt)
	}
	e.Int(c.gap)
	e.Bool(c.hasOp)
	e.Bool(c.opWrite)
	e.U64(c.opVA)
	e.I64(c.Target)
	e.I64(c.FinishedAt)
	e.I64(c.Warmup)
	e.I64(c.WarmupAt)
	e.U64(c.MemOps)
	e.U64(c.Loads)
	e.U64(c.Stores)
	e.U64(c.Stalled)
}

// Restore rebuilds the core from a Snapshot stream. In-flight reads get
// fresh pre-bound completion closures; the caller must re-register the
// unready ones with the memory system via PendingCompletions.
func (c *Core) Restore(d *snapshot.Decoder) error {
	c.fetched = d.I64()
	c.retired = d.I64()
	n := d.Count(17)
	if err := d.Err(); err != nil {
		return err
	}
	c.reads = c.reads[:0]
	c.readHead = 0
	c.inflight = 0
	c.wakeAt = 0
	prevPos := int64(-1)
	for i := 0; i < n; i++ {
		pos := d.I64()
		ready := d.Bool()
		readyAt := d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		if pos <= prevPos {
			return fmt.Errorf("cpu: snapshot read window out of program order (%d after %d)", pos, prevPos)
		}
		prevPos = pos
		r := c.getRead(pos)
		r.ready = ready
		r.readyAt = readyAt
		if !ready {
			c.inflight++
		}
		c.reads = append(c.reads, r)
	}
	c.gap = d.Int()
	c.hasOp = d.Bool()
	c.opWrite = d.Bool()
	c.opVA = d.U64()
	c.Target = d.I64()
	c.FinishedAt = d.I64()
	c.Warmup = d.I64()
	c.WarmupAt = d.I64()
	c.MemOps = d.U64()
	c.Loads = d.U64()
	c.Stores = d.U64()
	c.Stalled = d.U64()
	return d.Err()
}

// PendingCompletions returns the completion callbacks of the core's
// unready in-flight reads, in program order. After a Restore, the k-th
// element corresponds to the k-th live memory-system waiter this core
// had registered at snapshot time.
func (c *Core) PendingCompletions() []func() {
	var out []func()
	for _, r := range c.reads[c.readHead:] {
		if !r.ready {
			out = append(out, r.complete)
		}
	}
	return out
}
