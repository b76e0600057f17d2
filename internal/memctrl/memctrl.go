// Package memctrl implements the per-channel memory controller: read and
// write transaction queues, FR-FCFS scheduling with an adaptive open-page
// policy and write-drain watermarks (Tab. III), refresh maintenance, and
// the ERUCA operation flow of Fig. 5 via the dram planner. It collects
// the read queueing-latency distribution of Fig. 16a.
package memctrl

import (
	"math/rand"

	"eruca/internal/addrmap"
	"eruca/internal/clock"
	"eruca/internal/config"
	"eruca/internal/dram"
	"eruca/internal/rng"
	"eruca/internal/stats"
	"eruca/internal/telemetry"
)

// Transaction is one cache-line memory request.
type Transaction struct {
	Write  bool
	Loc    addrmap.Loc
	Arrive clock.Cycle
	// Tag is an opaque caller identifier (the sim bridge stores the line
	// address). It travels through checkpoints so the caller can rebind
	// the Done closure of a restored in-flight transaction.
	Tag uint64
	// Done, if non-nil, is called once with the cycle at which the data
	// transfer completes (read data available / write data absorbed).
	// Closures cannot be serialized: checkpoint restore rebuilds them
	// structurally via Controller.RestoreQueues' newTxn callback.
	Done func(dataAt clock.Cycle)

	// plan binds the transaction's DRAM target and memoizes its next
	// step and that step's earliest issue cycle across scans
	// (dram.Channel.Plan). Enqueue and Restore bind it afresh, since
	// callers recycle Transactions; Write and Loc must not change while
	// the transaction is queued.
	plan dram.Memo
}

// bind resets the plan memo to the transaction's target.
func (t *Transaction) bind() {
	l := t.Loc
	t.plan.Reset(dram.Target{Rank: l.Rank, Group: l.Group, Bank: l.Bank, Sub: l.Sub, Row: l.Row}, t.Write)
}

// Stats aggregates controller-side metrics for one channel.
type Stats struct {
	ReadsDone  uint64
	WritesDone uint64
	// QueueLatency samples, per read, the bus cycles from arrival to the
	// issue of its column command (the Fig. 16a metric).
	QueueLatency stats.Sampler
	// DrainEntered counts write-drain episodes.
	DrainEntered uint64
	// Forwarded counts reads served from the write queue.
	Forwarded uint64

	// Ticks and the occupancy sums integrate queue depth over time
	// (average depth = sum / ticks).
	Ticks       uint64
	ReadOccSum  uint64
	WriteOccSum uint64
}

// AvgReadQueueDepth reports the time-averaged read-queue occupancy.
func (s *Stats) AvgReadQueueDepth() float64 {
	if s.Ticks == 0 {
		return 0
	}
	return float64(s.ReadOccSum) / float64(s.Ticks)
}

// AvgWriteQueueDepth reports the time-averaged write-queue occupancy.
func (s *Stats) AvgWriteQueueDepth() float64 {
	if s.Ticks == 0 {
		return 0
	}
	return float64(s.WriteOccSum) / float64(s.Ticks)
}

// Controller schedules one DRAM channel.
type Controller struct {
	sys *config.System
	ch  *dram.Channel

	readQ  []*Transaction
	writeQ []*Transaction

	draining bool

	// starveCK promotes the oldest transaction over row hits once it has
	// waited this long, bounding FR-FCFS starvation.
	starveCK clock.Cycle

	lastCloseScan clock.Cycle

	// Fault-injection state (hooks.go): scheduling blackout horizon and
	// the probabilistic drop-rate stream. Zero-valued in normal runs.
	blackoutUntil clock.Cycle
	dropRate      float64
	dropRNG       *rand.Rand
	dropSrc       *rng.Source // counting source behind dropRNG, for checkpoints
	faultDrops    uint64

	// scanBound accumulates, during a Tick whose scans issued nothing,
	// the minimum EarliestIssue over every policy-eligible candidate the
	// scans evaluated. On quiescent cycles NextEventCycle reuses it
	// instead of re-walking the queues, making the fast-forward bound
	// almost free. A skipped scan (idleUntil) leaves it as the last scan
	// set it: with the queues and the channel unchanged, so is the bound.
	scanBound clock.Cycle

	// idleUntil and idleStamp record the last Tick whose scans issued
	// nothing: NextEventCycle at that tick, and the channel stamp. Until
	// idleUntil the scans would issue nothing again, so Tick skips them,
	// unless Enqueue has zeroed idleUntil or the stamp has moved (a
	// fault hook or a restore changed the channel).
	idleUntil clock.Cycle
	idleStamp uint64

	// tel, when set, receives per-read latency histogram observations
	// (queue age and arrival-to-data). Purely observational.
	tel *telemetry.Set

	Stats Stats
}

// LatencyReservoir bounds the per-controller latency sampler: quantile
// queries run over at most this many retained samples while counts and
// means stay exact (stats.Sampler reservoir mode).
const LatencyReservoir = 8192

// latencySeed seeds the deterministic reservoir PRNG; a fixed constant
// keeps sweep tables byte-identical at any parallelism (the sampler is
// only ever fed from its own single-threaded controller).
const latencySeed = 0x43a7_90e5

// New builds a controller driving the given channel.
func New(sys *config.System, ch *dram.Channel) *Controller {
	c := &Controller{sys: sys, ch: ch, starveCK: 1500}
	c.armSampler()
	return c
}

// armSampler puts the queue-latency sampler in bounded reservoir mode.
func (c *Controller) armSampler() {
	c.Stats.QueueLatency.Reservoir(LatencyReservoir, latencySeed)
}

// ResetStats clears the controller statistics (the warmup boundary) and
// re-arms the bounded latency sampler.
func (c *Controller) ResetStats() {
	c.Stats = Stats{}
	c.armSampler()
}

// SetTelemetry attaches a telemetry Set for the read-latency histograms;
// nil detaches.
func (c *Controller) SetTelemetry(t *telemetry.Set) { c.tel = t }

// Channel exposes the underlying DRAM channel (for stats readout).
func (c *Controller) Channel() *dram.Channel { return c.ch }

// CanAccept reports whether a new transaction of the given kind fits.
func (c *Controller) CanAccept(write bool) bool {
	if write {
		return len(c.writeQ) < c.sys.Ctrl.WriteQueueDepth
	}
	return len(c.readQ) < c.sys.Ctrl.ReadQueueDepth
}

// Enqueue adds a transaction; the caller must have checked CanAccept.
// A read that matches a queued write is forwarded from the write queue
// and completes immediately without a DRAM access.
func (c *Controller) Enqueue(t *Transaction) {
	t.bind()
	c.idleUntil = 0 // the new transaction may issue at once
	if t.Write {
		c.writeQ = append(c.writeQ, t)
		return
	}
	for _, w := range c.writeQ {
		if w.Loc == t.Loc {
			c.Stats.Forwarded++
			if t.Done != nil {
				t.Done(t.Arrive + 1)
			}
			return
		}
	}
	c.readQ = append(c.readQ, t)
}

// Pending reports queued transactions.
func (c *Controller) Pending() int { return len(c.readQ) + len(c.writeQ) }

// Tick runs one bus cycle: refresh maintenance, then at most one DRAM
// command chosen FR-FCFS with hits first, oldest first, reads prioritized
// outside write-drain episodes. It reports whether a command was issued
// this cycle (the run loop uses this to detect quiescent windows it can
// fast-forward).
//
// The FR-FCFS scans do not run on every tick. After a tick whose scans
// issued nothing, Tick skips them until the NextEventCycle recorded at
// that tick, unless a transaction is enqueued or the channel stamp
// moves (a fault hook or Restore) first. Inside that window nothing a
// scan reads can change: no refresh transition comes due, and the
// controller issues nothing, since its commands come from a scan or
// from the close-page timeout, whose next scan the wake also bounds.
// Rank availability changes only at a refresh transition and the
// starvation guard can only narrow the eligible set, so a scan would
// again issue nothing. The occupancy stats, MaintainRefresh, the fault
// gate, the write-drain hysteresis and the close-page timeout still run
// on every tick, and an active fault disables the skip.
func (c *Controller) Tick(now clock.Cycle) bool {
	c.Stats.Ticks++
	c.Stats.ReadOccSum += uint64(len(c.readQ))
	c.Stats.WriteOccSum += uint64(len(c.writeQ))
	c.ch.MaintainRefresh(now)

	// Injected scheduling perturbations (chaos runs only; a pair of
	// compares in normal runs).
	if now < c.blackoutUntil || c.dropRate > 0 {
		c.idleUntil, c.scanBound = 0, farFuture
		if c.faultGate(now) {
			return false
		}
	}

	// Write-drain hysteresis.
	if !c.draining && len(c.writeQ) >= c.sys.Ctrl.WriteDrainHi {
		c.draining = true
		c.Stats.DrainEntered++
	}
	if c.draining && len(c.writeQ) <= c.sys.Ctrl.WriteDrainLo {
		c.draining = false
	}

	if now < c.idleUntil && c.ch.Stamp() == c.idleStamp {
		return c.maybeClosePage(now)
	}

	// FR-FCFS serves row hits first; with the hit-first pass disabled
	// the controller degrades to age-ordered FCFS (ablation knob). Each
	// queue is scanned at most once per cycle: tryQueue folds the
	// hit-first and age-order passes into a single walk that asks
	// dram.Channel.Plan for each candidate's step and earliest issue,
	// which re-evaluates only candidates whose bank, rank or bus state
	// moved since the last scan.
	c.scanBound = farFuture
	hf := !c.sys.Ctrl.HitFirstDisabled
	if c.draining {
		if c.tryQueue(now, c.writeQ, true, true, hf) ||
			c.tryQueue(now, c.readQ, false, false, hf) {
			return true
		}
	} else {
		if c.tryQueue(now, c.readQ, false, true, hf) ||
			c.tryQueue(now, c.writeQ, true, len(c.readQ) == 0, hf) {
			return true
		}
	}
	c.idleUntil, c.idleStamp = c.NextEventCycle(now), c.ch.Stamp()

	return c.maybeClosePage(now)
}

// NextEventCycle reports a lower bound (strictly after now) on the next
// bus cycle at which this controller could act: the earliest legal
// issue over the candidates the last failed FR-FCFS scans evaluated
// (scanBound — the scans mirror the policy exactly: unavailable ranks,
// the starvation guard, and the read-priority / write-drain pass
// structure, so on a cycle where Tick issued nothing the bound is
// strictly in the future), the next refresh-state transition, or the
// next close-page scan. Only valid immediately after a Tick that issued
// nothing — precisely when the run loop consults it. A Tick that
// skipped its scans keeps the last scan's bound, which stays valid:
// the skip holds only while neither the queues nor the channel changed
// and no refresh transition has come due. The bound is conservative
// (policy state can only become more restrictive inside a quiescent
// window: starvation never ends while the head is stuck, rank
// availability changes only via bounded refresh transitions, so
// resuming early and finding nothing issuable is safe) but never later
// than the controller's next actual command, which is what makes
// fast-forwarded runs command-stream-identical to per-cycle runs.
func (c *Controller) NextEventCycle(now clock.Cycle) clock.Cycle {
	next := c.ch.NextRefreshEvent(now)
	if c.scanBound < next {
		next = c.scanBound
	}
	if e := c.nextClosePage(now); e < next {
		next = e
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// FastForward accounts for the idle bus cycles in (now, target) that the
// run loop is about to skip: it integrates the queue-occupancy stats the
// skipped Ticks would have accumulated (queue contents are provably
// unchanged across the window) and replays the close-page scan schedule
// so future scans land on the same cycles as in a per-cycle run.
func (c *Controller) FastForward(now, target clock.Cycle) {
	d := uint64(target - now - 1)
	c.Stats.Ticks += d
	c.Stats.ReadOccSum += d * uint64(len(c.readQ))
	c.Stats.WriteOccSum += d * uint64(len(c.writeQ))
	if c.sys.Ctrl.ClosePageIdleCK != 0 {
		// In a quiescent window maybeClosePage runs every cycle, scanning
		// (and re-arming lastCloseScan) every 64 cycles: scans land on
		// s0, s0+64, ... with s0 = max(now+1, lastCloseScan+64).
		s0 := c.lastCloseScan + 64
		if s0 < now+1 {
			s0 = now + 1
		}
		if s0 <= target-1 {
			c.lastCloseScan = s0 + (target-1-s0)/64*64
		}
	}
}

// nextClosePage reports the next cycle at which the close-page timeout
// could act: the next 64-cycle scan-grid cycle, provided the channel
// has any open row to consider. The run loop resumes there and lets
// maybeClosePage decide for real — deliberately cheap (O(ranks)) so the
// bound can be computed on every quiescent cycle, at the cost of
// capping individual skips at one scan period.
func (c *Controller) nextClosePage(now clock.Cycle) clock.Cycle {
	if c.sys.Ctrl.ClosePageIdleCK == 0 || !c.ch.AnyOpenRows() {
		return farFuture
	}
	s := c.lastCloseScan + 64
	if s <= now {
		s = now + 1
	}
	return s
}

// farFuture mirrors dram's "no event" sentinel.
const farFuture = clock.Cycle(1) << 60

// tryQueue scans up to ScanLimit transactions oldest-first and issues
// one step, folding FR-FCFS's two passes into a single walk: the first
// issuable row hit wins (when preferHits); otherwise the first issuable
// transaction of any kind is taken, but only when the age-order pass
// applies to this queue (allowAll). With preferHits off the scan
// degrades to pure age order and stops at the first issuable candidate.
// Each candidate's step and earliest issue come from its plan memo, so
// a scan re-evaluates only the candidates whose state moved.
func (c *Controller) tryQueue(now clock.Cycle, q []*Transaction, write, allowAll, preferHits bool) bool {
	if !allowAll && !preferHits {
		return false
	}
	limit := c.sys.Ctrl.ScanLimit
	if limit > len(q) {
		limit = len(q)
	}
	if limit == 0 {
		return false
	}
	// Starvation guard: once the queue head has waited too long, only it
	// (and row hits that cost nothing) may issue preparatory commands.
	starved := now-q[0].Arrive > c.starveCK
	first := -1
	var firstStep *dram.Step
	for i := 0; i < limit; i++ {
		t := q[i]
		if !c.ch.Available(t.Loc.Rank, now) {
			continue
		}
		step, e := c.ch.Plan(&t.plan)
		if !step.Hit {
			if !allowAll || (starved && i > 0) || first >= 0 {
				continue
			}
		}
		if e > now {
			if e < c.scanBound {
				c.scanBound = e
			}
			continue
		}
		if step.Hit && preferHits {
			// First issuable row hit: exactly what the hit-first pass
			// would have picked.
			c.ch.Issue(step.Cmd, now)
			if step.Column {
				c.complete(t, now, q, i, write)
			}
			return true
		}
		if first < 0 {
			first, firstStep = i, step
			if !preferHits {
				break // pure age order: the first issuable wins
			}
		}
	}
	if first < 0 || !allowAll {
		return false
	}
	c.ch.Issue(firstStep.Cmd, now)
	if firstStep.Column {
		c.complete(q[first], now, q, first, write)
	}
	return true
}

func (c *Controller) complete(t *Transaction, now clock.Cycle, q []*Transaction, idx int, write bool) {
	var dataAt clock.Cycle
	if write {
		dataAt = c.ch.WriteDataAt(now)
		c.Stats.WritesDone++
		c.writeQ = append(q[:idx], q[idx+1:]...)
	} else {
		dataAt = c.ch.ReadDataAt(now)
		c.Stats.ReadsDone++
		c.Stats.QueueLatency.Add(float64(now - t.Arrive))
		if c.tel != nil {
			c.tel.C.QueueAge.Observe(now - t.Arrive)
			c.tel.C.ReadLatency.Observe(dataAt - t.Arrive)
		}
		c.readQ = append(q[:idx], q[idx+1:]...)
	}
	if t.Done != nil {
		t.Done(dataAt)
	}
}

// maybeClosePage implements the adaptive open-page timeout: periodically
// precharge rows that have been idle with no queued requester. It
// reports whether a precharge was issued.
func (c *Controller) maybeClosePage(now clock.Cycle) bool {
	idle := clock.Cycle(c.sys.Ctrl.ClosePageIdleCK)
	if idle == 0 || now-c.lastCloseScan < 64 {
		return false
	}
	c.lastCloseScan = now
	var chosen dram.Command
	found := false
	c.ch.IdleOpenRows(now, idle, func(cmd dram.Command) {
		if found || c.hasQueuedFor(cmd) {
			return
		}
		if c.ch.EarliestIssue(cmd) <= now {
			chosen, found = cmd, true
		}
	})
	if found {
		c.ch.Issue(chosen, now)
	}
	return found
}

// hasQueuedFor reports whether any queued transaction targets the open
// row the PRE command would close.
func (c *Controller) hasQueuedFor(cmd dram.Command) bool {
	match := func(t *Transaction) bool {
		l := t.Loc
		return l.Rank == cmd.Rank && l.Group == cmd.Group && l.Bank == cmd.Bank &&
			l.Sub == cmd.Sub && l.Row == cmd.Row
	}
	for _, t := range c.readQ {
		if match(t) {
			return true
		}
	}
	for _, t := range c.writeQ {
		if match(t) {
			return true
		}
	}
	return false
}
