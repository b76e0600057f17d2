package sim

import (
	"testing"

	"eruca/internal/memctrl"
)

// TestBridgeZeroAlloc requires the warmed miss path to allocate
// nothing. Three paths are measured: a read miss, from Access through
// enqueue, issue, fill and the waiter's wake-up; a store whose miss
// evicts a dirty line, through the spill buffer, the write queue and the
// WR; and a close-page precharge of the row a read miss left open.
func TestBridgeZeroAlloc(t *testing.T) {
	br, ctls := testBridge(t)
	lineBytes := uint64(br.sys.Geom.LineBytes)
	// Twice the LLC, walked in order: every access misses in both
	// levels, and once the walk has stored to the whole region every
	// LLC victim is dirty.
	lines := 2 * uint64(br.sys.CPU.LLCBytesPerCore) / lineBytes
	var cursor uint64
	nextVA := func() uint64 {
		va := cursor % lines * lineBytes
		cursor++
		return va
	}
	woken := 0
	wake := func() { woken++ }
	access := func(write bool) {
		va := nextVA()
		for i := 0; ; i++ {
			if ok, _, _ := br.Access(0, va, write, wake); ok {
				return
			}
			if i == 10_000 {
				t.Fatal("access refused for 10,000 bus cycles")
			}
			tick(br, ctls, 1)
		}
	}
	busy := func() bool {
		if len(br.events) > 0 || len(br.spill) > 0 {
			return true
		}
		for _, ctl := range ctls {
			if ctl.Pending() > 0 {
				return true
			}
		}
		return false
	}
	settle := func() {
		for i := 0; busy(); i++ {
			if i == 100_000 {
				t.Fatal("bridge did not settle")
			}
			tick(br, ctls, 1)
		}
	}
	sum := func(f func(*memctrl.Controller) uint64) (n uint64) {
		for _, ctl := range ctls {
			n += f(ctl)
		}
		return n
	}
	reads := func(c *memctrl.Controller) uint64 { return c.Channel().Stats.Reads }
	writes := func(c *memctrl.Controller) uint64 { return c.Channel().Stats.Writes }
	pres := func(c *memctrl.Controller) uint64 { return c.Channel().Stats.Pres }

	// Warm up: grow every queue, pool, map and the latency reservoir to
	// their working size, then leave the LLC holding clean lines.
	for i := uint64(0); i < 2*lines; i++ {
		access(i%4 == 0)
	}
	for i := uint64(0); i < lines; i++ {
		access(false)
	}
	settle()

	readMiss := func() {
		before := woken
		access(false)
		for i := 0; woken == before; i++ {
			if i == 10_000 {
				t.Fatal("read miss not filled within 10,000 bus cycles")
			}
			tick(br, ctls, 1)
		}
	}
	storeMiss := func() {
		access(true)
		settle()
	}
	closePage := func() {
		readMiss()
		before := sum(pres)
		for i := 0; sum(pres) == before; i++ {
			if i == 10_000 {
				t.Fatal("no close-page precharge within 10,000 bus cycles")
			}
			tick(br, ctls, 1)
		}
	}

	r0 := sum(reads)
	if a := testing.AllocsPerRun(200, readMiss); a != 0 {
		t.Errorf("read miss: %v allocs/op, want 0", a)
	}
	if sum(reads)-r0 < 201 {
		t.Fatalf("read-miss runs issued %d DRAM reads, want one each", sum(reads)-r0)
	}

	// Store to the whole region once, so that every LLC victim from
	// here on is dirty.
	for i := uint64(0); i < lines; i++ {
		access(true)
	}
	settle()
	w0 := sum(writes)
	if a := testing.AllocsPerRun(200, storeMiss); a != 0 {
		t.Errorf("dirty writeback: %v allocs/op, want 0", a)
	}
	if sum(writes)-w0 < 201 {
		t.Fatalf("store runs issued %d DRAM writes, want one each", sum(writes)-w0)
	}

	if a := testing.AllocsPerRun(20, closePage); a != 0 {
		t.Errorf("close-page precharge: %v allocs/op, want 0", a)
	}
}
