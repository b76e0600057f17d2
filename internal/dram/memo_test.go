package dram

import (
	"testing"

	"eruca/internal/clock"
	"eruca/internal/config"
	"eruca/internal/snapshot"
)

// memoTarget is one transaction the memo check holds a Memo for.
type memoTarget struct {
	t     Target
	write bool
	m     Memo
}

// checkPlanMemo drives a refresh-enabled channel with random legal
// commands, each issued at its earliest cycle, interleaved with every
// fault hook and Snapshot/Restore rewinds. After every step it requires
// each held Memo to give the same answer as a fresh nextStep +
// EarliestIssue evaluation.
func checkPlanMemo(t *testing.T, sys *config.System, seed uint64, steps int) {
	t.Helper()
	sys.Ctrl.RefreshEnabled = true
	rowBits := sys.Geom.RowBits
	if sys.Scheme.SubBanksPerBank() > 1 && sys.Scheme.Mode != config.SubBankPaired {
		rowBits--
	}
	ch := NewChannel(sys, rowBits)
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
	// Few banks and a small row pool, so that the targets collide:
	// row hits, conflicts, plane conflicts and shared MWLs.
	rows := make([]uint32, 6)
	for i := range rows {
		rows[i] = uint32(rnd(1 << rowBits))
	}
	targets := make([]memoTarget, 24)
	for i := range targets {
		targets[i] = memoTarget{
			t: Target{
				Rank:  rnd(sys.Geom.Ranks),
				Group: rnd(min(2, sys.Geom.BankGroups)),
				Bank:  rnd(min(2, banks)),
				Sub:   rnd(sys.Scheme.SubBanksPerBank()),
				Row:   rows[rnd(len(rows))],
			},
			write: rnd(3) == 0,
		}
		targets[i].m.Reset(targets[i].t, targets[i].write)
	}

	var (
		now      clock.Cycle
		saved    []byte
		savedNow clock.Cycle
	)
	for i := 0; i < steps; i++ {
		switch r := rnd(100); {
		case r == 0:
			ch.InjectRefreshDelay(rnd(sys.Geom.Ranks), clock.Cycle(rnd(64)))
		case r == 1:
			ch.InjectForcePrecharge()
		case r == 2:
			ch.InjectTimingReset()
		case r == 3:
			ch.InjectRowCorruption()
		case r < 6:
			var e snapshot.Encoder
			ch.Snapshot(&e)
			saved, savedNow = e.Seal(), now
		case r < 8 && saved != nil:
			d, err := snapshot.Open(saved)
			if err != nil {
				t.Fatal(err)
			}
			if err := ch.Restore(d); err != nil {
				t.Fatal(err)
			}
			now = savedNow
		case r < 11:
			// Idle until just before the next refresh transition, so
			// that the commands that follow meet it with rows busy.
			if next := ch.NextRefreshEvent(now) - clock.Cycle(1+rnd(32)); next > now {
				now = next
			}
		default:
			// Issue one target's next step at its earliest cycle, or
			// advance to the next refresh transition if that comes
			// first.
			tg := &targets[rnd(len(targets))]
			next := ch.NextRefreshEvent(now)
			if !ch.Available(tg.t.Rank, now) {
				now = next
				ch.MaintainRefresh(now)
				break
			}
			st := ch.nextStep(tg.t, tg.write)
			e := ch.EarliestIssue(st.Cmd)
			if e >= next {
				now = next
				ch.MaintainRefresh(now)
				break
			}
			if e > now {
				now = e
			}
			ch.Issue(st.Cmd, now)
		}
		for k := range targets {
			tg := &targets[k]
			got, gotAt := ch.Plan(&tg.m)
			want := ch.nextStep(tg.t, tg.write)
			wantAt := ch.EarliestIssue(want.Cmd)
			if *got != want || gotAt != wantAt {
				t.Fatalf("%s seed %d step %d target %+v: Plan = %v at %d, fresh = %v at %d",
					sys.Name, seed, i, tg.t, got.Cmd, gotAt, want.Cmd, wantAt)
			}
		}
	}
}

// Every preset at both bus frequencies, refresh on: a memoized Plan
// always equals a fresh evaluation, whatever command, refresh
// transition, fault hook or restore came in between.
func TestPlanMemoMatchesFresh(t *testing.T) {
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
			checkPlanMemo(t, sys, seed, 3000)
		}
	}
}

func FuzzPlanMemo(f *testing.F) {
	names := config.RegistryNames()
	for i := range names {
		f.Add(uint64(i)*104729+1, uint8(i), i%2 == 0)
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
		checkPlanMemo(t, sys, seed, 500)
	})
}
