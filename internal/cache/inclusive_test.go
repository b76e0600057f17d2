package cache

import (
	"math/rand"
	"testing"
)

// Two cores thrash one LLC set: the hierarchy stays consistent and
// writebacks carry only lines that were written.
func TestCrossCoreThrash(t *testing.T) {
	h := small()
	written := map[uint64]bool{}
	r := rand.New(rand.NewSource(3))
	var wbs []uint64
	for i := 0; i < 5000; i++ {
		core := i & 1
		line := uint64(r.Intn(64)) * 16 // all in LLC set 0
		write := r.Intn(3) == 0
		if write {
			written[line] = true
		}
		out := h.Access(core, line, write)
		wbs = append(wbs, out.Writebacks()...)
	}
	for _, wb := range wbs {
		if !written[wb] {
			t.Fatalf("writeback of never-written line %#x", wb)
		}
	}
}

// LLC stats hits+misses equals the number of L1 misses.
func TestLevelAccounting(t *testing.T) {
	h := small()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		h.Access(0, uint64(r.Intn(4096)), r.Intn(4) == 0)
	}
	l1 := h.L1Stats(0)
	llc := h.LLCStats()
	if llc.Hits+llc.Misses != l1.Misses {
		t.Errorf("LLC lookups %d != L1 misses %d", llc.Hits+llc.Misses, l1.Misses)
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || LLC.String() != "LLC" || Mem.String() != "MEM" {
		t.Error("level strings")
	}
}

func TestLineBytes(t *testing.T) {
	if small().LineBytes() != 64 {
		t.Error("line bytes")
	}
}
