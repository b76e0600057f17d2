package memctrl

import (
	"fmt"

	"eruca/internal/addrmap"
	"eruca/internal/clock"
	"eruca/internal/snapshot"
)

// Snapshot serializes the controller's mutable state: both transaction
// queues (in order — FR-FCFS ages by queue position), the write-drain
// and close-page bookkeeping, fault-injection cursors, and Stats
// including the reservoir latency samplers. Transaction Done closures
// cannot serialize; each transaction records its Tag instead and
// Restore rebinds completion via the caller's newTxn callback.
func (c *Controller) Snapshot(e *snapshot.Encoder) {
	snapshotTxnQueue(e, c.readQ)
	snapshotTxnQueue(e, c.writeQ)
	e.Bool(c.draining)
	e.I64(int64(c.starveCK))
	e.I64(int64(c.lastCloseScan))
	e.I64(int64(c.blackoutUntil))
	e.F64(c.dropRate)
	if c.dropSrc != nil {
		e.Bool(true)
		seed, draws := c.dropSrc.State()
		e.I64(seed)
		e.U64(draws)
	} else {
		e.Bool(false)
	}
	e.U64(c.faultDrops)

	e.U64(c.Stats.ReadsDone)
	e.U64(c.Stats.WritesDone)
	c.Stats.QueueLatency.Snapshot(e)
	e.U64(c.Stats.DrainEntered)
	e.U64(c.Stats.Forwarded)
	e.U64(c.Stats.Ticks)
	e.U64(c.Stats.ReadOccSum)
	e.U64(c.Stats.WriteOccSum)
}

func snapshotTxnQueue(e *snapshot.Encoder, q []*Transaction) {
	e.Int(len(q))
	for _, t := range q {
		e.Bool(t.Write)
		e.Int(t.Loc.Channel)
		e.Int(t.Loc.Rank)
		e.Int(t.Loc.Group)
		e.Int(t.Loc.Bank)
		e.Int(t.Loc.Sub)
		e.U32(t.Loc.Row)
		e.U32(t.Loc.Col)
		e.I64(int64(t.Arrive))
		e.U64(t.Tag)
		e.Bool(t.Done != nil)
	}
}

// Restore rebuilds the controller from a Snapshot stream. newTxn is
// called once per queued transaction, in queue order, with the
// serialized fields; it must return the transaction to enqueue (with
// Done rebound as the caller sees fit). Queue order is preserved
// exactly — restore appends directly, bypassing Enqueue's write
// forwarding, so a restored queue schedules identically to the
// original.
func (c *Controller) Restore(d *snapshot.Decoder,
	newTxn func(write bool, loc addrmap.Loc, arrive clock.Cycle, tag uint64, hadDone bool) *Transaction,
) error {
	var err error
	c.readQ, err = restoreTxnQueue(d, newTxn, false)
	if err != nil {
		return err
	}
	c.writeQ, err = restoreTxnQueue(d, newTxn, true)
	if err != nil {
		return err
	}
	c.draining = d.Bool()
	c.starveCK = clock.Cycle(d.I64())
	c.lastCloseScan = clock.Cycle(d.I64())
	c.blackoutUntil = clock.Cycle(d.I64())
	c.dropRate = d.F64()
	if d.Bool() {
		seed := d.I64()
		draws := d.U64()
		if d.Err() == nil {
			c.InjectDropRate(c.dropRate, seed)
			if c.dropSrc != nil {
				c.dropSrc.Restore(seed, draws)
			}
		}
	} else if c.dropRate <= 0 {
		c.dropRNG, c.dropSrc = nil, nil
	}
	c.faultDrops = d.U64()

	c.Stats.ReadsDone = d.U64()
	c.Stats.WritesDone = d.U64()
	c.Stats.QueueLatency.Restore(d)
	c.Stats.DrainEntered = d.U64()
	c.Stats.Forwarded = d.U64()
	c.Stats.Ticks = d.U64()
	c.Stats.ReadOccSum = d.U64()
	c.Stats.WriteOccSum = d.U64()

	// scanBound and the idle skip are transient (recomputed by the next
	// Tick's scans); park the bound at the sentinel so a NextEventCycle
	// before the first Tick is sane.
	c.scanBound, c.idleUntil = farFuture, 0
	return d.Err()
}

func restoreTxnQueue(d *snapshot.Decoder,
	newTxn func(write bool, loc addrmap.Loc, arrive clock.Cycle, tag uint64, hadDone bool) *Transaction,
	wantWrite bool,
) ([]*Transaction, error) {
	n := d.Count(40)
	q := make([]*Transaction, 0, n)
	for i := 0; i < n; i++ {
		write := d.Bool()
		var loc addrmap.Loc
		loc.Channel = d.Int()
		loc.Rank = d.Int()
		loc.Group = d.Int()
		loc.Bank = d.Int()
		loc.Sub = d.Int()
		loc.Row = d.U32()
		loc.Col = d.U32()
		arrive := clock.Cycle(d.I64())
		tag := d.U64()
		hadDone := d.Bool()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if write != wantWrite {
			return nil, fmt.Errorf("memctrl: snapshot %s-queue entry %d has write=%v", qname(wantWrite), i, write)
		}
		t := newTxn(write, loc, arrive, tag, hadDone)
		if t == nil {
			return nil, fmt.Errorf("memctrl: restore callback returned nil for %s-queue entry %d", qname(wantWrite), i)
		}
		t.bind()
		q = append(q, t)
	}
	return q, nil
}

func qname(write bool) string {
	if write {
		return "write"
	}
	return "read"
}
