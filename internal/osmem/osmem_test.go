package osmem

import (
	"testing"
	"testing/quick"
)

func TestAllocFreeRoundTrip(t *testing.T) {
	m := NewMemory(64<<20, 1) // 32 huge blocks
	if freeBytes(m) != 64<<20 {
		t.Fatalf("free = %d", freeBytes(m))
	}
	blk, ok := m.Alloc(MaxOrder)
	if !ok {
		t.Fatal("huge alloc failed on empty memory")
	}
	if freeBytes(m) != 62<<20 {
		t.Errorf("free after huge alloc = %d", freeBytes(m))
	}
	refFree(m, blk, MaxOrder)
	if freeBytes(m) != 64<<20 {
		t.Errorf("free after release = %d", freeBytes(m))
	}
}

func TestAllocationsAreContiguousWhenUnfragmented(t *testing.T) {
	m := NewMemory(64<<20, 1)
	var prev uint32
	for i := 0; i < 100; i++ {
		f, ok := m.Alloc(0)
		if !ok {
			t.Fatal("alloc failed")
		}
		if i > 0 && f != prev+1 {
			t.Fatalf("allocation %d at frame %d, previous %d: not contiguous", i, f, prev)
		}
		prev = f
	}
}

func TestCoalescingRebuildsHugeBlocks(t *testing.T) {
	m := NewMemory(4<<20, 1) // 2 huge blocks
	var frames []uint32
	for i := 0; i < 512; i++ {
		f, ok := m.Alloc(0)
		if !ok {
			t.Fatal("alloc failed")
		}
		frames = append(frames, f)
	}
	if got := len(m.free[MaxOrder]); got != 1 {
		t.Fatalf("huge blocks free = %d, want 1", got)
	}
	for _, f := range frames {
		refFree(m, f, 0)
	}
	if got := len(m.free[MaxOrder]); got != 2 {
		t.Errorf("huge blocks after coalesce = %d, want 2", got)
	}
	if m.FMFI() != 0 {
		t.Errorf("FMFI after full coalesce = %v", m.FMFI())
	}
}

func TestMisalignedFreePanics(t *testing.T) {
	m := NewMemory(4<<20, 1)
	defer func() {
		if recover() == nil {
			t.Error("misaligned free did not panic")
		}
	}()
	refFree(m, 3, 2)
}

func TestFragmentHitsTarget(t *testing.T) {
	for _, target := range []float64{0.1, 0.5} {
		m := NewMemory(1<<30, 42)
		got := m.Fragment(target)
		if got < target || got > target+0.05 {
			t.Errorf("Fragment(%v) achieved %v", target, got)
		}
	}
}

// Property: alloc/free sequences conserve free frames.
func TestAllocFreeConservation(t *testing.T) {
	f := func(orders []uint8) bool {
		m := NewMemory(32<<20, 7)
		total := freeBytes(m)
		type blk struct {
			start uint32
			order int
		}
		var held []blk
		for _, o := range orders {
			order := int(o) % (MaxOrder + 1)
			if s, ok := m.Alloc(order); ok {
				held = append(held, blk{s, order})
			}
		}
		for _, b := range held {
			refFree(m, b.start, b.order)
		}
		return freeBytes(m) == total && m.FMFI() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranslateStable(t *testing.T) {
	m := NewMemory(256<<20, 1)
	p := m.NewProcess(true, 2)
	addrs := []uint64{0, 4096, 1 << 21, 123456789, 5 << 20}
	first := make([]uint64, len(addrs))
	for i, va := range addrs {
		first[i] = p.MustTranslate(va)
	}
	for i, va := range addrs {
		if got := p.MustTranslate(va); got != first[i] {
			t.Errorf("Translate(%#x) changed: %#x -> %#x", va, first[i], got)
		}
	}
}

// Offsets within a page are preserved; huge-backed regions are
// physically contiguous across 4KiB boundaries.
func TestTranslateContiguityUnderTHP(t *testing.T) {
	m := NewMemory(256<<20, 1)
	p := m.NewProcess(true, 2)
	base := p.MustTranslate(0)
	if p.HugeMapped != 1 {
		t.Fatalf("first touch on pristine memory mapped %d huge pages, want 1", p.HugeMapped)
	}
	for off := uint64(0); off < HugeBytes; off += 4096 * 37 {
		if got := p.MustTranslate(off); got != base+off {
			t.Fatalf("huge region not contiguous at %#x: %#x != %#x", off, got, base+off)
		}
	}
}

// With THP disabled only base pages are mapped.
func TestNoTHP(t *testing.T) {
	m := NewMemory(64<<20, 1)
	p := m.NewProcess(false, 2)
	for va := uint64(0); va < 4<<20; va += FrameBytes {
		p.MustTranslate(va)
	}
	if p.HugeMapped != 0 {
		t.Errorf("huge pages mapped with THP off: %d", p.HugeMapped)
	}
	if p.BaseMapped != 1024 {
		t.Errorf("base pages = %d, want 1024", p.BaseMapped)
	}
}

// Fragmentation reduces huge-page coverage and scatters base pages.
func TestFragmentationReducesHugeCoverage(t *testing.T) {
	low := NewMemory(1<<30, 3)
	low.Fragment(0.1)
	hi := NewMemory(1<<30, 3)
	hi.Fragment(0.5)

	touch := func(m *Memory) (huge, base uint64) {
		p := m.NewProcess(true, 9)
		for va := uint64(0); va < 128<<20; va += FrameBytes {
			p.MustTranslate(va)
		}
		return p.HugeMapped, p.BaseMapped
	}
	lh, _ := touch(low)
	hh, hb := touch(hi)
	if lh <= hh {
		t.Errorf("huge coverage: low-frag %d <= high-frag %d", lh, hh)
	}
	if hb == 0 {
		t.Error("high fragmentation produced no base pages")
	}
}

// A region that fell back to base pages never later flips to huge
// (sticky decision, no double mapping).
func TestRegionDecisionSticky(t *testing.T) {
	m := NewMemory(1<<30, 3)
	m.Fragment(0.5)
	p := m.NewProcess(true, 9)
	for i := 0; i < 200; i++ {
		region := uint64(i) << 21
		a := p.MustTranslate(region)
		wasHuge := p.HugeMapped
		for off := uint64(0); off < 1<<21; off += 4096 * 61 {
			p.MustTranslate(region + off)
		}
		if p.HugeMapped != wasHuge {
			t.Fatalf("region %d flipped to huge after base-page fault", i)
		}
		if got := p.MustTranslate(region); got != a {
			t.Fatalf("region %d first page moved", i)
		}
	}
}
