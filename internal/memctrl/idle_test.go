package memctrl

import (
	"testing"

	"eruca/internal/addrmap"
	"eruca/internal/clock"
	"eruca/internal/config"
	"eruca/internal/dram"
	"eruca/internal/snapshot"
)

// issuedCmd is one command a twin's channel issued.
type issuedCmd struct {
	cmd dram.Command
	at  clock.Cycle
}

// completion is one transaction's Done call.
type completion struct {
	tag uint64
	at  clock.Cycle
}

// idleTwin is one side of the idle-skip check: a controller with
// refresh on, every command its channel issued and every completion.
type idleTwin struct {
	c                  *Controller
	cmds               []issuedCmd
	done               []completion
	savedCh, savedCtrl []byte
}

func newIdleTwin(t *testing.T, sys *config.System, rowBits int) *idleTwin {
	w := &idleTwin{}
	ch := dram.NewChannel(sys, rowBits)
	ch.Attach(w)
	ch.OnViolation(func(v dram.Violation) { t.Fatalf("%s: violation %v", sys.Name, v) })
	w.c = New(sys, ch)
	return w
}

func (w *idleTwin) Observe(c dram.Command, at clock.Cycle) {
	w.cmds = append(w.cmds, issuedCmd{c, at})
}

func (w *idleTwin) txn(write bool, loc addrmap.Loc, arrive clock.Cycle, tag uint64) *Transaction {
	return &Transaction{Write: write, Loc: loc, Arrive: arrive, Tag: tag,
		Done: func(at clock.Cycle) { w.done = append(w.done, completion{tag, at}) }}
}

func (w *idleTwin) save() {
	var ce, qe snapshot.Encoder
	w.c.ch.Snapshot(&ce)
	w.c.Snapshot(&qe)
	w.savedCh, w.savedCtrl = ce.Seal(), qe.Seal()
}

// rewind restores the saved controller, and the saved channel as well
// when withChannel is set.
func (w *idleTwin) rewind(t *testing.T, withChannel bool) {
	if withChannel {
		d, err := snapshot.Open(w.savedCh)
		if err == nil {
			err = w.c.ch.Restore(d)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	d, err := snapshot.Open(w.savedCtrl)
	if err == nil {
		err = w.c.Restore(d, func(write bool, loc addrmap.Loc, arrive clock.Cycle, tag uint64, _ bool) *Transaction {
			return w.txn(write, loc, arrive, tag)
		})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// idleCoverage counts what one checkIdleSkip run exercised.
type idleCoverage struct {
	skipped, forwarded, drains uint64
}

// checkIdleSkip runs two controllers on the same inputs: one that skips
// its scans while idle, and a twin whose idle record is cleared before
// every Tick, so that it scans on every tick. The inputs are random
// reads, writes and forwarded reads, write bursts that cross the drain
// watermark, refresh, every fault hook of dram and memctrl, snapshot
// rewinds (of the whole channel, or of the controller alone), and
// fast-forward jumps to the earlier NextEventCycle. Both must return the
// same Tick results, issue the same commands at the same cycles and
// complete the same transactions at the same cycles.
func checkIdleSkip(t *testing.T, sys *config.System, seed uint64, cycles int) idleCoverage {
	t.Helper()
	sys.Ctrl.RefreshEnabled = true
	rowBits := addrmap.New(sys).RowBits()
	skip, full := newIdleTwin(t, sys, rowBits), newIdleTwin(t, sys, rowBits)
	twins := []*idleTwin{skip, full}
	banks := sys.Geom.BanksPerGroup
	if sys.Scheme.Mode == config.SubBankPaired {
		banks /= 2
	}

	x := seed | 1
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	// Few banks, rows and columns, so that transactions collide: row
	// hits, conflicts, plane conflicts and reads forwarded from writes.
	rows := make([]uint32, 6)
	for i := range rows {
		rows[i] = uint32(rnd(1 << rowBits))
	}
	locs := make([]addrmap.Loc, 32)
	for i := range locs {
		locs[i] = addrmap.Loc{
			Rank:  rnd(sys.Geom.Ranks),
			Group: rnd(min(2, sys.Geom.BankGroups)),
			Bank:  rnd(min(2, banks)),
			Sub:   rnd(sys.Scheme.SubBanksPerBank()),
			Row:   rows[rnd(len(rows))],
			Col:   uint32(rnd(4)),
		}
	}

	var (
		now, savedNow clock.Cycle
		tag           uint64
		cov           idleCoverage
		nCmds, nDone  int
	)
	enqueue := func(write bool) {
		if !skip.c.CanAccept(write) {
			return
		}
		tag++
		loc := locs[rnd(len(locs))]
		for _, w := range twins {
			w.c.Enqueue(w.txn(write, loc, now, tag))
		}
	}
	for i := 0; i < cycles; i++ {
		switch r := rnd(2000); {
		case r < 60:
			enqueue(rnd(3) == 0)
		case r < 62:
			for len(skip.c.writeQ) < sys.Ctrl.WriteDrainHi && skip.c.CanAccept(true) {
				enqueue(true)
			}
		case r == 62:
			rank, delta := rnd(sys.Geom.Ranks), clock.Cycle(rnd(64))
			for _, w := range twins {
				w.c.ch.InjectRefreshDelay(rank, delta)
			}
		case r == 63:
			for _, w := range twins {
				w.c.ch.InjectForcePrecharge()
			}
		case r == 64:
			for _, w := range twins {
				w.c.ch.InjectTimingReset()
			}
		case r == 65:
			for _, w := range twins {
				w.c.ch.InjectRowCorruption()
			}
		case r == 66:
			until := now + clock.Cycle(rnd(200))
			for _, w := range twins {
				w.c.InjectBlackout(until)
			}
		case r == 67:
			rate := float64(rnd(2)) * 0.3
			for _, w := range twins {
				w.c.InjectDropRate(rate, int64(seed))
			}
		case r < 72:
			for _, w := range twins {
				w.save()
			}
			savedNow = now
		case r < 74 && skip.savedCtrl != nil:
			for _, w := range twins {
				w.rewind(t, true)
			}
			now = savedNow
		case r < 75 && skip.savedCtrl != nil:
			// The saved queues come back on the live channel.
			for _, w := range twins {
				w.rewind(t, false)
			}
		}

		full.c.idleUntil = 0
		skipping := now < skip.c.idleUntil && skip.c.ch.Stamp() == skip.c.idleStamp
		issued := skip.c.Tick(now)
		if want := full.c.Tick(now); issued != want {
			t.Fatalf("%s seed %d cycle %d: Tick = %v, full scan %v", sys.Name, seed, now, issued, want)
		}
		if skipping {
			// The channel stamp does not move at Issue: the wake is no
			// later than the next close-page scan, so a tick that skips
			// its scans issues nothing.
			if issued {
				t.Fatalf("%s seed %d cycle %d: a tick that skipped its scans issued", sys.Name, seed, now)
			}
			cov.skipped++
		}
		if len(skip.cmds) != len(full.cmds) || len(skip.done) != len(full.done) {
			t.Fatalf("%s seed %d cycle %d: %d commands and %d completions, full scan %d and %d",
				sys.Name, seed, now, len(skip.cmds), len(skip.done), len(full.cmds), len(full.done))
		}
		for ; nCmds < len(skip.cmds); nCmds++ {
			if got, want := skip.cmds[nCmds], full.cmds[nCmds]; got != want {
				t.Fatalf("%s seed %d: command %d is %v at %d, full scan %v at %d",
					sys.Name, seed, nCmds, got.cmd, got.at, want.cmd, want.at)
			}
		}
		for ; nDone < len(skip.done); nDone++ {
			if got, want := skip.done[nDone], full.done[nDone]; got != want {
				t.Fatalf("%s seed %d: completion %d is %+v, full scan %+v", sys.Name, seed, nDone, got, want)
			}
		}

		// Jump like the run loop does after a quiet tick. The skipping
		// controller keeps its last scan's bound, which must never be
		// later than a fresh scan's.
		if !issued && rnd(4) == 0 {
			next, fresh := skip.c.NextEventCycle(now), full.c.NextEventCycle(now)
			if next > fresh {
				t.Fatalf("%s seed %d cycle %d: NextEventCycle %d, full scan %d", sys.Name, seed, now, next, fresh)
			}
			if next > now+1 {
				for _, w := range twins {
					w.c.FastForward(now, next)
				}
				now = next - 1
			}
		}
		now++
	}
	if skip.c.Stats.Ticks != full.c.Stats.Ticks || skip.c.Stats.ReadOccSum != full.c.Stats.ReadOccSum ||
		skip.c.Stats.DrainEntered != full.c.Stats.DrainEntered || skip.c.Channel().Stats != full.c.Channel().Stats {
		t.Fatalf("%s seed %d: stats differ: %+v / %+v, full scan %+v / %+v", sys.Name, seed,
			skip.c.Stats, skip.c.Channel().Stats, full.c.Stats, full.c.Channel().Stats)
	}
	cov.forwarded, cov.drains = skip.c.Stats.Forwarded, skip.c.Stats.DrainEntered
	return cov
}

// Every preset at both bus frequencies: a controller that skips its
// scans while idle behaves exactly like one that scans on every tick.
func TestIdleSkipMatchesFullScan(t *testing.T) {
	var total idleCoverage
	for _, name := range config.RegistryNames() {
		for _, mhz := range []float64{1333, 2400} {
			sys, err := config.ByName(name, 0, mhz)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(mhz)
			for _, c := range name {
				seed = seed*31 + uint64(c)
			}
			cov := checkIdleSkip(t, sys, seed, 20000)
			total.skipped += cov.skipped
			total.forwarded += cov.forwarded
			total.drains += cov.drains
		}
	}
	t.Logf("%+v", total)
	if total.skipped == 0 || total.forwarded == 0 || total.drains == 0 {
		t.Errorf("inputs did not exercise the skip: %+v", total)
	}
}

func FuzzIdleSkip(f *testing.F) {
	names := config.RegistryNames()
	for i := range names {
		f.Add(uint64(i)*7919+1, uint8(i), i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed uint64, preset uint8, fast bool) {
		mhz := 1333.0
		if fast {
			mhz = 2400
		}
		sys, err := config.ByName(names[int(preset)%len(names)], 0, mhz)
		if err != nil {
			t.Fatal(err)
		}
		checkIdleSkip(t, sys, seed, 3000)
	})
}
