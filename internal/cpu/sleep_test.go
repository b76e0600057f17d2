package cpu

import "testing"

// xorshift is the tests' deterministic random stream.
type xorshift uint64

func (x *xorshift) intn(n int) int {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return int(uint64(*x) % uint64(n))
}

// randSource feeds a random mix of gaps, loads and stores.
type randSource struct{ x xorshift }

func (s *randSource) Next() (int, bool, uint64) {
	gap := 0
	if s.x.intn(3) > 0 {
		gap = s.x.intn(12)
	}
	return gap, s.x.intn(4) == 0, uint64(s.x.intn(1<<20)) << 6
}

// memCall is one Access a core made.
type memCall struct {
	at    int64
	va    uint64
	write bool
}

// pendingDone is a completion the fake memory system will deliver.
type pendingDone struct {
	at   int64
	done func()
}

// sleepMem is a memory system that refuses some accesses, serves some
// at a known cycle and holds the rest for a random delay. Every choice
// comes from its own stream, drawn once per accepted or refused call,
// so two twins that make the same calls get the same answers.
type sleepMem struct {
	x       xorshift
	now     int64
	calls   []memCall
	pending []pendingDone
	refused int
}

func (m *sleepMem) Access(core int, va uint64, write bool, done func()) (bool, bool, int64) {
	m.calls = append(m.calls, memCall{m.now, va, write})
	switch r := m.x.intn(16); {
	case r < 3:
		m.refused++
		return false, false, 0
	case write:
		return true, false, 0
	case r < 8:
		return true, false, m.now + 1 + int64(m.x.intn(40))
	default:
		m.pending = append(m.pending, pendingDone{m.now + 1 + int64(m.x.intn(400)), done})
		return true, true, 0
	}
}

// deliver fires, in the order they were registered, the completions due
// by now, as the sim bridge does at the start of a bus cycle.
func (m *sleepMem) deliver(now int64) {
	kept := m.pending[:0]
	var due []func()
	for _, p := range m.pending {
		if p.at <= now {
			due = append(due, p.done)
		} else {
			kept = append(kept, p)
		}
	}
	m.pending = kept
	for _, d := range due {
		d()
	}
}

// checkCoreSleep runs two cores on identical sources and memory
// systems: one sleeps as it normally does, and its twin has its sleep
// cleared before every Tick, so it runs every tick in full. Both must
// make the same Access calls at the same cycles and agree on every
// counter after every cycle. It returns how many ticks the sleeping
// core slept through and how many accesses were refused.
func checkCoreSleep(t *testing.T, seed uint64, rob, lsq, width int) (slept, refused int) {
	t.Helper()
	const target, warmup = 4000, 1000
	mems := [2]*sleepMem{{x: xorshift(seed | 1)}, {x: xorshift(seed | 1)}}
	var cores [2]*Core
	for i := range cores {
		src := &randSource{x: xorshift(seed*7 + 3)}
		cores[i] = New(0, width, rob, lsq, target, src, mems[i])
		cores[i].Warmup = warmup
	}
	sleeper, twin := cores[0], cores[1]
	for now := int64(1); now < 400_000; now++ {
		for i, c := range cores {
			mems[i].now = now
			mems[i].deliver(now)
			if c == twin {
				c.wakeAt = 0
			} else if now < c.wakeAt {
				slept++
			}
			c.Tick(now)
		}
		a, b := sleeper, twin
		if a.fetched != b.fetched || a.retired != b.retired || a.Stalled != b.Stalled ||
			a.MemOps != b.MemOps || a.WarmupAt != b.WarmupAt || a.FinishedAt != b.FinishedAt ||
			len(mems[0].calls) != len(mems[1].calls) {
			t.Fatalf("seed %d rob %d lsq %d width %d, cycle %d: sleeping core fetched %d retired %d stalled %d memops %d warmup@%d finished@%d calls %d; "+
				"twin fetched %d retired %d stalled %d memops %d warmup@%d finished@%d calls %d",
				seed, rob, lsq, width, now,
				a.fetched, a.retired, a.Stalled, a.MemOps, a.WarmupAt, a.FinishedAt, len(mems[0].calls),
				b.fetched, b.retired, b.Stalled, b.MemOps, b.WarmupAt, b.FinishedAt, len(mems[1].calls))
		}
		if a.Done() && len(mems[0].pending) == 0 {
			break
		}
	}
	if !sleeper.Done() {
		t.Fatalf("seed %d: core did not finish", seed)
	}
	for i, c := range mems[0].calls {
		if c != mems[1].calls[i] {
			t.Fatalf("seed %d: access %d differs: sleeping core %+v, twin %+v", seed, i, c, mems[1].calls[i])
		}
	}
	return slept, mems[0].refused
}

// A sleeping core is indistinguishable from one that runs every tick
// in full: same accesses at the same cycles, same counters at every
// cycle, whether it is blocked by a full ROB, a full LSQ, a refusal, a
// pending read or a read with a known completion cycle.
func TestCoreSleepMatchesTick(t *testing.T) {
	var slept, refused int
	for i, g := range [][3]int{{16, 2, 4}, {32, 4, 8}, {64, 8, 8}, {192, 32, 8}, {8, 8, 2}} {
		for seed := uint64(1); seed <= 4; seed++ {
			s, r := checkCoreSleep(t, seed*1000+uint64(i), g[0], g[1], g[2])
			slept += s
			refused += r
		}
	}
	if slept == 0 || refused == 0 {
		t.Fatalf("coverage: %d slept ticks, %d refusals; want both", slept, refused)
	}
	t.Logf("%d slept ticks, %d refusals", slept, refused)
}

func FuzzCoreSleep(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(uint64(i)*7919+1, uint8(i*5), uint8(i*3), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, rob, lsq, width uint8) {
		checkCoreSleep(t, seed, 1+int(rob%64), 1+int(lsq%16), 1+int(width%8))
	})
}
