package sim

import (
	"testing"

	"eruca/internal/addrmap"
	"eruca/internal/cache"
	"eruca/internal/config"
	"eruca/internal/dram"
	"eruca/internal/memctrl"
	"eruca/internal/osmem"
)

// testBridge wires a bridge over tiny fixtures with an identity-ish
// process so tests control physical addresses.
func testBridge(t *testing.T) (*bridge, []*memctrl.Controller) {
	t.Helper()
	sys := config.Baseline(config.DefaultBusMHz)
	sys.Ctrl.RefreshEnabled = false
	mapper := addrmap.New(sys)
	mem := osmem.NewMemory(1<<30, 1)
	procs := []*osmem.Process{mem.NewProcess(true, 1)}
	caches := cache.MustNew(cache.Config{
		Cores: 1, L1Bytes: sys.CPU.L1Bytes, L1Ways: sys.CPU.L1Ways,
		LLCBytes: sys.CPU.LLCBytesPerCore, LLCWays: sys.CPU.LLCWays,
		LineBytes: sys.Geom.LineBytes,
	})
	var ctls []*memctrl.Controller
	for c := 0; c < sys.Geom.Channels; c++ {
		ctls = append(ctls, memctrl.New(sys, dram.NewChannel(sys, mapper.RowBits())))
	}
	return newBridge(sys, mapper, procs, caches, ctls, nil), ctls
}

func tick(br *bridge, ctls []*memctrl.Controller, busCycles int) {
	for i := 0; i < busCycles; i++ {
		br.busNow++
		br.fireEvents()
		br.cpuNow += 3
		for _, ctl := range ctls {
			ctl.Tick(br.busNow)
		}
		br.drainSpill()
	}
}

// Two loads to one line coalesce into a single DRAM transaction and both
// complete.
func TestMSHRCoalescing(t *testing.T) {
	br, ctls := testBridge(t)
	done := 0
	cb := func() { done++ }
	if ok, pending, _ := br.Access(0, 0x1000, false, cb); !ok || !pending {
		t.Fatal("first access not pending")
	}
	if ok, pending, _ := br.Access(0, 0x1008, false, cb); !ok || !pending {
		t.Fatal("coalesced access not pending")
	}
	var reads uint64
	tick(br, ctls, 200)
	for _, ctl := range ctls {
		reads += ctl.Channel().Stats.Reads
	}
	if reads != 1 {
		t.Errorf("DRAM reads = %d, want 1 (coalesced)", reads)
	}
	if done != 2 {
		t.Errorf("completions = %d, want 2", done)
	}
}

// A store to a line with an in-flight fetch is posted without a second
// transaction.
func TestStoreJoinsInflightFetch(t *testing.T) {
	br, ctls := testBridge(t)
	br.Access(0, 0x2000, false, func() {})
	if ok, pending, _ := br.Access(0, 0x2010, true, nil); !ok || pending {
		t.Fatal("store to inflight line mishandled")
	}
	tick(br, ctls, 200)
	var reads uint64
	for _, ctl := range ctls {
		reads += ctl.Channel().Stats.Reads
	}
	if reads != 1 {
		t.Errorf("DRAM reads = %d, want 1", reads)
	}
}

// Cache hits complete with the configured latencies without touching
// DRAM.
func TestHitLatencies(t *testing.T) {
	br, ctls := testBridge(t)
	br.Access(0, 0x3000, false, func() {})
	tick(br, ctls, 200)
	br.cpuNow = 1000
	ok, pending, doneAt := br.Access(0, 0x3000, false, nil)
	if !ok || pending {
		t.Fatal("warm line not an immediate hit")
	}
	if doneAt != 1000+int64(br.sys.CPU.L1LatencyCK) {
		t.Errorf("L1 hit at %d, want %d", doneAt, 1000+int64(br.sys.CPU.L1LatencyCK))
	}
}

// The spill buffer applies backpressure before overflowing.
func TestSpillBackpressure(t *testing.T) {
	br, _ := testBridge(t)
	for i := 0; i < spillLimit; i++ {
		br.spill = append(br.spill, uint64(i))
	}
	if ok, _, _ := br.Access(0, 0x9000, false, func() {}); ok {
		t.Error("access accepted with a full spill buffer")
	}
}

// Deferred events fire exactly once at their bus cycle.
func TestEventFiring(t *testing.T) {
	br, _ := testBridge(t)
	fired := 0
	br.mshr.put(0x42, []waiter{{fn: func() { fired++ }}})
	br.pushEvent(5, 0x42)
	if at, ok := br.nextEventAt(); !ok || at != 5 {
		t.Fatalf("nextEventAt = %d,%v, want 5,true", at, ok)
	}
	for br.busNow = 0; br.busNow < 10; br.busNow++ {
		br.fireEvents()
	}
	if fired != 1 {
		t.Errorf("event fired %d times", fired)
	}
	if len(br.events) != 0 {
		t.Error("event heap not drained")
	}
}

// Same-cycle events fire in insertion order and the heap orders across
// cycles.
func TestEventOrdering(t *testing.T) {
	br, _ := testBridge(t)
	var order []uint64
	for _, ln := range []uint64{10, 11, 12} {
		l := ln
		br.mshr.put(l, []waiter{{fn: func() { order = append(order, l) }}})
	}
	br.pushEvent(7, 11)
	br.pushEvent(3, 10)
	br.pushEvent(7, 12)
	for br.busNow = 0; br.busNow < 10; br.busNow++ {
		br.fireEvents()
	}
	if len(order) != 3 || order[0] != 10 || order[1] != 11 || order[2] != 12 {
		t.Errorf("fill order = %v, want [10 11 12]", order)
	}
}
