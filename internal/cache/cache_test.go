package cache

import (
	"testing"
	"testing/quick"
)

func small() *Hierarchy {
	return MustNew(Config{
		Cores:   2,
		L1Bytes: 1 << 10, L1Ways: 2, // 8 sets of 2
		LLCBytes: 4 << 10, LLCWays: 4,
		LineBytes: 64,
	})
}

func TestColdMissThenHit(t *testing.T) {
	h := small()
	if out := h.Access(0, 100, false); out.Level != Mem {
		t.Errorf("cold access level = %v", out.Level)
	}
	if out := h.Access(0, 100, false); out.Level != L1 {
		t.Errorf("second access level = %v", out.Level)
	}
}

func TestLLCHitAfterL1Eviction(t *testing.T) {
	h := small()
	h.Access(0, 0, false)
	// L1 has 8 sets; addresses 0, 8, 16 map to set 0 (2 ways).
	h.Access(0, 8, false)
	h.Access(0, 16, false) // evicts line 0 from L1; still in LLC
	if out := h.Access(0, 0, false); out.Level != LLC {
		t.Errorf("post-eviction access level = %v, want LLC", out.Level)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := small()
	// LLC: 4KiB/4w/64B = 16 sets, 4 ways. Same LLC set: addresses ≡ mod 16.
	h.Access(0, 0, true) // dirty in L1
	var wbs []uint64
	// Evict line 0 from L1 (set 0: 0,8,16 -> 2 ways) then storm the LLC set.
	h.Access(0, 8, false)
	h.Access(0, 16, false) // L1 victim 0 is dirty, absorbed by LLC
	for i := uint64(1); i <= 6; i++ {
		out := h.Access(0, i*16, false) // LLC set 0
		wbs = append(wbs, out.Writebacks()...)
	}
	found := false
	for _, wb := range wbs {
		if wb == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("dirty line 0 never written back: %v", wbs)
	}
}

func TestWriteAllocate(t *testing.T) {
	h := small()
	out := h.Access(0, 42, true)
	if out.Level != Mem {
		t.Errorf("store miss level = %v, want Mem (write-allocate fetch)", out.Level)
	}
	if out := h.Access(0, 42, false); out.Level != L1 {
		t.Errorf("load after store = %v, want L1", out.Level)
	}
}

func TestPerCoreL1Private(t *testing.T) {
	h := small()
	h.Access(0, 7, false)
	if out := h.Access(1, 7, false); out.Level != LLC {
		t.Errorf("other core's access = %v, want LLC (shared below L1)", out.Level)
	}
}

func TestLRUOrder(t *testing.T) {
	h := small()
	// Fill L1 set 0 (2 ways): 0 then 8; touch 0; insert 16 -> victim is 8.
	h.Access(0, 0, false)
	h.Access(0, 8, false)
	h.Access(0, 0, false)
	h.Access(0, 16, false)
	if out := h.Access(0, 0, false); out.Level != L1 {
		t.Errorf("recently used line evicted (level %v)", out.Level)
	}
}

func TestStats(t *testing.T) {
	h := small()
	h.Access(0, 1, false)
	h.Access(0, 1, false)
	h.Access(0, 2, false)
	l1 := h.L1Stats(0)
	if l1.Hits != 1 || l1.Misses != 2 {
		t.Errorf("L1 stats = %+v", l1)
	}
	llc := h.LLCStats()
	if llc.Hits != 0 || llc.Misses != 2 {
		t.Errorf("LLC stats = %+v", llc)
	}
}

// Property: the same address never produces a writeback of itself, and
// repeated access to a working set smaller than L1 stays at L1 after
// warmup.
func TestSmallWorkingSetStaysL1(t *testing.T) {
	h := small()
	f := func(seed uint8) bool {
		base := uint64(seed) * 1024
		for pass := 0; pass < 2; pass++ {
			for i := uint64(0); i < 8; i++ { // 8 lines across 8 sets
				out := h.Access(1, base+i, false)
				if pass == 1 && out.Level != L1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBadGeometryReturnsError(t *testing.T) {
	cases := []Config{
		{Cores: 1, L1Bytes: 3 << 10, L1Ways: 2, LLCBytes: 4 << 10, LLCWays: 4, LineBytes: 64},
		{Cores: 1, L1Bytes: 1 << 10, L1Ways: 2, LLCBytes: 3 << 10, LLCWays: 4, LineBytes: 64},
		{Cores: 1, L1Bytes: 1 << 10, L1Ways: 0, LLCBytes: 4 << 10, LLCWays: 4, LineBytes: 64},
		{Cores: 1, L1Bytes: 1 << 10, L1Ways: 2, LLCBytes: 4 << 10, LLCWays: 4, LineBytes: 0},
	}
	for i, cfg := range cases {
		if h, err := New(cfg); err == nil {
			t.Errorf("case %d: bad geometry %+v accepted (got %v)", i, cfg, h)
		}
	}

	// MustNew converts the error into a panic for static configs.
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on bad geometry")
		}
	}()
	MustNew(cases[0])
}
