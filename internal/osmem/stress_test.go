package osmem

import (
	"errors"
	"testing"
	"testing/quick"
)

// No physical frame is handed out twice across processes: translations
// of distinct (process, huge-region/page) pairs never overlap.
func TestNoFrameDoubleAllocation(t *testing.T) {
	m := NewMemory(1<<30, 5)
	m.Fragment(0.3)
	procs := []*Process{m.NewProcess(true, 1), m.NewProcess(true, 2), m.NewProcess(false, 3)}
	owner := make(map[uint64]int) // pfn -> process index
	for pi, p := range procs {
		for va := uint64(0); va < 64<<20; va += FrameBytes {
			pfn := p.MustTranslate(va) / FrameBytes
			if prev, taken := owner[pfn]; taken && prev != pi {
				t.Fatalf("frame %d owned by process %d and %d", pfn, prev, pi)
			}
			owner[pfn] = pi
		}
	}
}

// FMFI is monotone under fragmentation pokes.
func TestFMFIMonotone(t *testing.T) {
	m := NewMemory(1<<30, 9)
	prev := m.FMFI()
	for _, target := range []float64{0.05, 0.15, 0.3, 0.6} {
		got := m.Fragment(target)
		if got < prev-1e-12 {
			t.Fatalf("FMFI decreased: %v -> %v", prev, got)
		}
		prev = got
	}
}

// Exhausting physical memory returns the typed ErrOOM (so the sim ends
// gracefully with partial stats), and MustTranslate panics with it.
func TestExhaustionReturnsErrOOM(t *testing.T) {
	m := NewMemory(8<<20, 1) // 2048 frames
	p := m.NewProcess(false, 1)
	var got error
	for va := uint64(0); va < 64<<20; va += FrameBytes {
		if _, err := p.Translate(va); err != nil {
			got = err
			break
		}
	}
	if got == nil {
		t.Fatal("no error after touching 8x physical memory")
	}
	if !errors.Is(got, ErrOOM) {
		t.Errorf("exhaustion error = %v, want errors.Is(..., ErrOOM)", got)
	}

	// MustTranslate converts the error into a panic for sized callers.
	defer func() {
		r := recover()
		if r == nil {
			t.Error("MustTranslate did not panic on exhaustion")
			return
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrOOM) {
			t.Errorf("MustTranslate panicked with %v, want ErrOOM", r)
		}
	}()
	p.MustTranslate(1 << 40)
}

// Alloc fails gracefully (ok=false) when no block of the order exists,
// without corrupting state.
func TestAllocFailureGraceful(t *testing.T) {
	m := NewMemory(4<<20, 1) // 2 huge blocks
	a, ok := m.Alloc(MaxOrder)
	b, ok2 := m.Alloc(MaxOrder)
	if !ok || !ok2 {
		t.Fatal("setup allocs failed")
	}
	if _, ok := m.Alloc(MaxOrder); ok {
		t.Fatal("third huge alloc succeeded on empty memory")
	}
	if _, ok := m.Alloc(0); ok {
		t.Fatal("frame alloc succeeded on fully allocated memory")
	}
	refFree(m, a, MaxOrder)
	refFree(m, b, MaxOrder)
	if freeBytes(m) != 4<<20 {
		t.Errorf("free bytes after recovery = %d", freeBytes(m))
	}
}

// Property: a fragmented memory still satisfies any frame allocation
// while free frames remain, and allocations are distinct.
func TestFragmentedAllocDistinct(t *testing.T) {
	f := func(seed int64) bool {
		m := NewMemory(64<<20, seed)
		m.Fragment(0.4)
		seen := make(map[uint32]bool)
		for i := 0; i < 1000; i++ {
			fr, ok := m.Alloc(0)
			if !ok {
				return freeBytes(m) == 0
			}
			if seen[fr] {
				return false
			}
			seen[fr] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Huge-page translations stay within capacity.
func TestTranslationsWithinCapacity(t *testing.T) {
	m := NewMemory(256<<20, 2)
	p := m.NewProcess(true, 4)
	for va := uint64(0); va < 128<<20; va += 1 << 20 {
		pa := p.MustTranslate(va)
		if pa >= m.TotalBytes() {
			t.Fatalf("PA %#x beyond capacity %#x", pa, m.TotalBytes())
		}
	}
}

// MappedBytes accounts both page kinds.
func TestMappedBytes(t *testing.T) {
	m := NewMemory(64<<20, 2)
	p := m.NewProcess(true, 4)
	p.MustTranslate(0) // huge (pristine memory)
	if p.MappedBytes() != HugeBytes {
		t.Errorf("mapped = %d, want one huge page", p.MappedBytes())
	}
}
