package memctrl

import (
	"eruca/internal/clock"
	"eruca/internal/rng"
)

// This file holds the fault-injection hooks the chaos harness
// (internal/faults) drives, plus the introspection accessors the
// watchdog's deadlock reports use. The hooks perturb *scheduling* only
// — every command that does issue remains protocol-legal — so they
// exercise the watchdog and starvation paths rather than the protocol
// checker.

// InjectBlackout suspends all transaction scheduling until the given
// bus cycle (use a far-future cycle for a permanent stall). Refresh
// maintenance keeps running, so the perturbation models a wedged
// scheduler rather than a dead channel. Queued work then ages without
// progress, which the forward-progress watchdog detects.
func (c *Controller) InjectBlackout(until clock.Cycle) {
	c.blackoutUntil = until
}

// Blackout reports the current blackout horizon (zero when none).
func (c *Controller) BlackoutUntil() clock.Cycle { return c.blackoutUntil }

// InjectDropRate makes the controller skip scheduling on each cycle
// with the given probability, using a private deterministic stream —
// a protocol-legal perturbation that stresses latency ceilings and the
// fast-forward/watchdog composition without ever producing an illegal
// command.
func (c *Controller) InjectDropRate(rate float64, seed int64) {
	if rate <= 0 {
		c.dropRate, c.dropRNG, c.dropSrc = 0, nil, nil
		return
	}
	if rate > 1 {
		rate = 1
	}
	c.dropRate = rate
	c.dropRNG, c.dropSrc = rng.New(seed)
}

// DroppedTicks reports how many scheduling opportunities the drop-rate
// injector has skipped.
func (c *Controller) DroppedTicks() uint64 { return c.faultDrops }

// faultGate runs the injected scheduling perturbations for one cycle,
// while a blackout lasts or a drop rate is set. It reports true when the
// cycle's scheduling must be skipped, and keeps scanBound tight so the
// fast-forwarding run loop never skips past the perturbation window.
func (c *Controller) faultGate(now clock.Cycle) bool {
	if now < c.blackoutUntil {
		if c.blackoutUntil < c.scanBound {
			c.scanBound = c.blackoutUntil
		}
		return true
	}
	if c.dropRate > 0 && c.dropRNG.Float64() < c.dropRate {
		c.faultDrops++
		// The dropped opportunity may have been issuable: resume next
		// cycle so the command stream only shifts, never stalls.
		c.scanBound = now + 1
		return true
	}
	return false
}

// QueueDepths reports the current read- and write-queue occupancy (for
// deadlock reports).
func (c *Controller) QueueDepths() (reads, writes int) {
	return len(c.readQ), len(c.writeQ)
}

// OldestReadAge reports how many bus cycles the oldest queued read has
// been waiting (zero when the read queue is empty) — the watchdog's
// per-transaction latency-ceiling input.
func (c *Controller) OldestReadAge(now clock.Cycle) clock.Cycle {
	if len(c.readQ) == 0 {
		return 0
	}
	return now - c.readQ[0].Arrive
}

// OldestWriteAge reports the age of the oldest queued write.
func (c *Controller) OldestWriteAge(now clock.Cycle) clock.Cycle {
	if len(c.writeQ) == 0 {
		return 0
	}
	return now - c.writeQ[0].Arrive
}
