package memctrl

import (
	"testing"

	"eruca/internal/addrmap"
	"eruca/internal/clock"
	"eruca/internal/config"
	"eruca/internal/dram"
	"eruca/internal/snapshot"
)

func newCtl(t *testing.T, sys *config.System) (*Controller, *addrmap.Mapper) {
	t.Helper()
	sys.Ctrl.RefreshEnabled = false
	m := addrmap.New(sys)
	ch := dram.NewChannel(sys, m.RowBits())
	return New(sys, ch), m
}

// drive runs the controller until the predicate is satisfied or the
// cycle budget expires.
func drive(t *testing.T, c *Controller, until func() bool, budget clock.Cycle) clock.Cycle {
	t.Helper()
	for now := clock.Cycle(0); now < budget; now++ {
		c.Tick(now)
		if until() {
			return now
		}
	}
	t.Fatalf("controller did not converge within %d cycles", budget)
	return 0
}

func loc(bank int, row uint32, col uint32) addrmap.Loc {
	return addrmap.Loc{Group: bank / 4, Bank: bank % 4, Row: row, Col: col}
}

func TestSingleReadCompletes(t *testing.T) {
	c, _ := newCtl(t, config.Baseline(config.DefaultBusMHz))
	var dataAt clock.Cycle
	c.Enqueue(&Transaction{Loc: loc(0, 5, 0), Done: func(at clock.Cycle) { dataAt = at }})
	drive(t, c, func() bool { return dataAt != 0 }, 1000)
	ct := config.Baseline(config.DefaultBusMHz).CT
	want := ct.RCD + ct.CL + ct.Burst // ACT at 0, RD at tRCD, data at +CL+burst
	if dataAt != want {
		t.Errorf("read data at %d, want %d", dataAt, want)
	}
	if c.Stats.ReadsDone != 1 {
		t.Errorf("reads done = %d", c.Stats.ReadsDone)
	}
}

// Row hits are served before older conflicting requests (FR-FCFS), but
// the starvation guard eventually promotes the conflicting one.
func TestRowHitFirst(t *testing.T) {
	c, _ := newCtl(t, config.Baseline(config.DefaultBusMHz))
	var order []int
	mk := func(id int, l addrmap.Loc) *Transaction {
		return &Transaction{Loc: l, Done: func(clock.Cycle) { order = append(order, id) }}
	}
	// Open row 5 via the first transaction.
	c.Enqueue(mk(0, loc(0, 5, 0)))
	drive(t, c, func() bool { return len(order) == 1 }, 1000)
	// Conflict (row 9) arrives before another hit (row 5).
	c.Enqueue(mk(1, loc(0, 9, 0)))
	c.Enqueue(mk(2, loc(0, 5, 1)))
	drive(t, c, func() bool { return len(order) == 3 }, 5000)
	if order[1] != 2 || order[2] != 1 {
		t.Errorf("service order = %v, want hit (2) before conflict (1)", order)
	}
}

func TestWriteDrainHysteresis(t *testing.T) {
	sys := config.Baseline(config.DefaultBusMHz)
	c, _ := newCtl(t, sys)
	done := 0
	for i := 0; i < sys.Ctrl.WriteDrainHi; i++ {
		c.Enqueue(&Transaction{Write: true, Loc: loc(i%16, uint32(i), 0), Done: func(clock.Cycle) { done++ }})
	}
	drive(t, c, func() bool { return len(c.writeQ) <= sys.Ctrl.WriteDrainLo }, 20000)
	if c.Stats.DrainEntered != 1 {
		t.Errorf("drain episodes = %d, want 1", c.Stats.DrainEntered)
	}
	if done == 0 {
		t.Error("no writes completed during drain")
	}
}

// Without drain pressure, reads are served even when older writes wait.
func TestReadsPriorityOverWrites(t *testing.T) {
	c, _ := newCtl(t, config.Baseline(config.DefaultBusMHz))
	var first string
	c.Enqueue(&Transaction{Write: true, Loc: loc(0, 5, 0), Done: func(clock.Cycle) {
		if first == "" {
			first = "write"
		}
	}})
	c.Enqueue(&Transaction{Loc: loc(1, 5, 0), Done: func(clock.Cycle) {
		if first == "" {
			first = "read"
		}
	}})
	drive(t, c, func() bool { return first != "" }, 2000)
	if first != "read" {
		t.Errorf("first completion = %s, want read", first)
	}
}

func TestReadForwardsFromWriteQueue(t *testing.T) {
	c, _ := newCtl(t, config.Baseline(config.DefaultBusMHz))
	l := loc(0, 5, 3)
	c.Enqueue(&Transaction{Write: true, Loc: l})
	var at clock.Cycle
	c.Enqueue(&Transaction{Loc: l, Arrive: 10, Done: func(a clock.Cycle) { at = a }})
	if at == 0 {
		t.Fatal("read not forwarded")
	}
	if c.Stats.Forwarded != 1 {
		t.Errorf("forwarded = %d", c.Stats.Forwarded)
	}
}

func TestQueueLatencyRecorded(t *testing.T) {
	c, _ := newCtl(t, config.Baseline(config.DefaultBusMHz))
	n := 0
	for i := 0; i < 8; i++ {
		c.Enqueue(&Transaction{Loc: loc(i, 5, 0), Done: func(clock.Cycle) { n++ }})
	}
	drive(t, c, func() bool { return n == 8 }, 5000)
	if c.Stats.QueueLatency.N() != 8 {
		t.Errorf("latency samples = %d", c.Stats.QueueLatency.N())
	}
	if c.Stats.QueueLatency.Mean() <= 0 {
		t.Error("zero mean queueing latency for a burst")
	}
}

// The adaptive close-page timeout eventually precharges an idle row.
func TestClosePageTimeout(t *testing.T) {
	sys := config.Baseline(config.DefaultBusMHz)
	c, _ := newCtl(t, sys)
	n := 0
	c.Enqueue(&Transaction{Loc: loc(0, 5, 0), Done: func(clock.Cycle) { n++ }})
	drive(t, c, func() bool { return n == 1 }, 1000)
	deadline := clock.Cycle(sys.Ctrl.ClosePageIdleCK) * 4
	for now := clock.Cycle(100); now < 100+deadline; now++ {
		c.Tick(now)
	}
	if c.Channel().Stats.Pres == 0 {
		t.Error("idle open row was never closed")
	}
}

// Capacity checks.
func TestCanAccept(t *testing.T) {
	sys := config.Baseline(config.DefaultBusMHz)
	c, _ := newCtl(t, sys)
	for i := 0; i < sys.Ctrl.ReadQueueDepth; i++ {
		if !c.CanAccept(false) {
			t.Fatalf("queue refused at %d/%d", i, sys.Ctrl.ReadQueueDepth)
		}
		c.Enqueue(&Transaction{Loc: loc(i%16, uint32(i/16), 0)})
	}
	if c.CanAccept(false) {
		t.Error("full read queue accepted")
	}
	if !c.CanAccept(true) {
		t.Error("empty write queue refused")
	}
}

// End-to-end under a VSB system: plane conflicts are surfaced in channel
// stats when naive sub-banking thrashes.
func TestVSBPlaneConflictEndToEnd(t *testing.T) {
	sys := config.VSB(4, false, false, false, config.DefaultBusMHz)
	c, _ := newCtl(t, sys)
	n := 0
	// Same plane (same row MSBs), both sub-banks, alternating.
	for i := 0; i < 10; i++ {
		c.Enqueue(&Transaction{
			Loc:  addrmap.Loc{Sub: i % 2, Row: uint32(0x100 + 8*(i%2)), Col: uint32(i)},
			Done: func(clock.Cycle) { n++ },
		})
	}
	drive(t, c, func() bool { return n == 10 }, 50000)
	if c.Channel().Stats.PlaneConfPre == 0 {
		t.Error("alternating same-plane sub-bank stream caused no plane conflicts")
	}
}

// Callers recycle Transactions, so one can arrive with a plan memo that
// is still valid for another channel. Enqueue and Restore must both
// make it plan afresh.
func TestRecycledTransactionReplans(t *testing.T) {
	// planned leaves a read to bank 0 row 5 planned but unissued on its
	// own controller: row 9 is open, and tRAS holds the PRE back.
	planned := func() *Transaction {
		c, _ := newCtl(t, config.Baseline(config.DefaultBusMHz))
		c.Channel().Issue(dram.Command{Kind: dram.CmdACT, Row: 9}, 0)
		txn := &Transaction{Loc: loc(0, 5, 0)}
		c.Enqueue(txn)
		if c.Tick(1) {
			t.Fatal("PRE issued inside tRAS")
		}
		return txn
	}
	cases := []struct {
		name    string
		requeue func(c *Controller, txn *Transaction)
	}{
		{"Enqueue", func(c *Controller, txn *Transaction) { c.Enqueue(txn) }},
		{"Restore", func(c *Controller, txn *Transaction) {
			src, _ := newCtl(t, config.Baseline(config.DefaultBusMHz))
			src.Enqueue(&Transaction{Loc: txn.Loc})
			var e snapshot.Encoder
			src.Snapshot(&e)
			d, err := snapshot.Open(e.Seal())
			if err != nil {
				t.Fatal(err)
			}
			err = c.Restore(d, func(bool, addrmap.Loc, clock.Cycle, uint64, bool) *Transaction { return txn })
			if err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		// On a fresh channel bank 0 is closed, so the read's first step
		// is an ACT that can issue at once.
		c, _ := newCtl(t, config.Baseline(config.DefaultBusMHz))
		tc.requeue(c, planned())
		if !c.Tick(1) {
			t.Errorf("%s: the recycled transaction kept its stale plan", tc.name)
		}
	}
}
