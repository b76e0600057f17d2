package sim

import (
	"fmt"
	"math"
	"testing"

	"eruca/internal/snapshot"
)

// mshrCoverage counts the table paths a random sequence exercised.
type mshrCoverage struct {
	collisions  int // puts whose home slot was taken
	wraps       int // puts that probed past the last slot to the first
	shiftChains int // removes that moved two or more entries back
	growths     int // puts that doubled the table
}

// slotOf reports the slot holding line, or -1.
func slotOf(m *mshrTable, line uint64) int {
	for i := range m.slots {
		if m.slots[i].key == line+1 {
			return i
		}
	}
	return -1
}

func sameWaiters(a, b []waiter) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].core != b[i].core || a[i].seq != b[i].seq {
			return false
		}
	}
	return true
}

// checkMSHRTable runs random puts, finds and removes over a pool of
// keys lines against a Go map, starting from the smallest table. A put
// of a line already present appends a waiter, as a coalesced load does.
// After every step each pooled line must give the map's answer, and the
// table must hold exactly the map's lines at a load factor of at most
// 1/2.
func checkMSHRTable(t *testing.T, seed uint64, steps, keys int) mshrCoverage {
	t.Helper()
	x := seed | 1
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	// Small lines collide at home; large ones exercise the high bits.
	pool := make([]uint64, keys)
	for i := range pool {
		pool[i] = uint64(i)
		if rnd(4) == 0 {
			pool[i] = uint64(rnd(1<<30))<<28 | uint64(i)
		}
	}

	m := newMSHRTable(1)
	ref := map[uint64][]waiter{}
	var cov mshrCoverage
	var seq uint64
	for i := 0; i < steps; i++ {
		line := pool[rnd(keys)]
		op := rnd(10)
		switch {
		case op < 5:
			seq++
			w := waiter{core: rnd(4), seq: seq}
			if ws := m.find(line); ws != nil {
				*ws = append(*ws, w)
				ref[line] = append(ref[line], w)
				break
			}
			size := len(m.slots)
			if m.slots[m.home(line)].key != 0 {
				cov.collisions++
			}
			m.put(line, []waiter{w})
			ref[line] = []waiter{w}
			if len(m.slots) != size {
				cov.growths++
			}
			if slotOf(&m, line) < m.home(line) {
				cov.wraps++
			}
		case op < 7:
			before := make([]uint64, len(m.slots))
			for j := range m.slots {
				before[j] = m.slots[j].key
			}
			got := m.remove(line)
			if want := ref[line]; !sameWaiters(got, want) {
				t.Fatalf("seed %d step %d: remove(%d) = %v, map holds %v", seed, i, line, got, want)
			}
			delete(ref, line)
			moved := 0
			for j := range m.slots {
				if k := m.slots[j].key; k != 0 && k != before[j] {
					moved++
				}
			}
			if moved >= 2 {
				cov.shiftChains++
			}
		}
		if err := mshrMatches(&m, ref, pool); err != nil {
			t.Fatalf("seed %d step %d (op %d on line %d): %v", seed, i, op, line, err)
		}
	}
	return cov
}

// mshrMatches compares the table with the map over every pooled line.
func mshrMatches(m *mshrTable, ref map[uint64][]waiter, pool []uint64) error {
	if m.len() != len(ref) {
		return fmt.Errorf("table holds %d lines, map %d", m.len(), len(ref))
	}
	if 2*m.len() > len(m.slots) {
		return fmt.Errorf("%d lines in %d slots: load factor above 1/2", m.len(), len(m.slots))
	}
	used := 0
	for i := range m.slots {
		if m.slots[i].key != 0 {
			used++
		}
	}
	if used != m.len() {
		return fmt.Errorf("%d slots in use for %d lines", used, m.len())
	}
	for _, line := range pool {
		ws := m.find(line)
		want, ok := ref[line]
		if (ws != nil) != ok {
			return fmt.Errorf("find(%d) present=%v, map present=%v", line, ws != nil, ok)
		}
		if ok && !sameWaiters(*ws, want) {
			return fmt.Errorf("find(%d) = %v, map holds %v", line, *ws, want)
		}
	}
	return nil
}

// The table answers every put, find and remove as a Go map does, and
// the sequences reach home-slot collisions, wrap-around probes,
// multi-entry backward shifts and growth.
func TestMSHRTableMatchesMap(t *testing.T) {
	var total mshrCoverage
	for seed := uint64(1); seed <= 8; seed++ {
		for _, keys := range []int{8, 64, 300} {
			c := checkMSHRTable(t, seed*2654435761, 4000, keys)
			total.collisions += c.collisions
			total.wraps += c.wraps
			total.shiftChains += c.shiftChains
			total.growths += c.growths
		}
	}
	t.Logf("coverage: %+v", total)
	if total.collisions == 0 || total.wraps == 0 || total.shiftChains == 0 || total.growths == 0 {
		t.Errorf("sequences missed a table path: %+v", total)
	}
}

func FuzzMSHRTable(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(uint64(i)*7919+1, uint16(1+i*37))
	}
	f.Fuzz(func(t *testing.T, seed uint64, keys uint16) {
		checkMSHRTable(t, seed, 1000, 1+int(keys%512))
	})
}

// The bridge sizes its table at construction for one line per read
// queue slot of every channel at a load factor of at most 1/2.
func TestMSHRTableSizing(t *testing.T) {
	br, ctls := testBridge(t)
	want := 2 * len(ctls) * br.sys.Ctrl.ReadQueueDepth
	if n := len(br.mshr.slots); n < want || n >= 2*want || n&(n-1) != 0 {
		t.Errorf("table has %d slots, want the power of two in [%d, %d)", n, want, 2*want)
	}
}

// The table keys each line as line + 1, so a checkpoint naming the line
// 2^64 - 1 cannot be held, and restore rejects it.
func TestRestoreRejectsMSHRLineOutOfRange(t *testing.T) {
	br, _ := testBridge(t)
	var e snapshot.Encoder
	e.Int(0) // events
	e.U64(0) // event sequence
	e.Int(1) // MSHR lines
	e.U64(math.MaxUint64)
	e.Int(0) // waiters
	e.U64(0) // waiter sequence
	e.Int(0) // spill
	e.Int(len(br.misses))
	for range br.misses {
		e.U64(0)
	}
	d, err := snapshot.Open(e.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if err := br.restore(d); err == nil {
		t.Error("restore accepted MSHR line 2^64 - 1")
	}
}
