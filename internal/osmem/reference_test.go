package osmem

import (
	"slices"
	"testing"

	"eruca/internal/diag"
)

// freeBytes reports the free physical memory.
func freeBytes(m *Memory) uint64 { return uint64(m.freeFrames) * FrameBytes }

// refFree returns a block to the allocator and coalesces it with free
// buddies, the textbook buddy free path that refFragment is built on.
// It finds each buddy by scanning that order's free list from the tail
// and removes it by swapping in the last entry.
func refFree(m *Memory, start uint32, order int) {
	diag.Invariant(start&(1<<uint(order)-1) == 0,
		"osmem: Free of misaligned block %d order %d", start, order)
	m.freeFrames += 1 << uint(order)
	for order < MaxOrder {
		buddy := start ^ 1<<uint(order)
		lst := m.free[order]
		i := len(lst) - 1
		for i >= 0 && lst[i] != buddy {
			i--
		}
		if i < 0 {
			break
		}
		lst[i] = lst[len(lst)-1]
		m.free[order] = lst[:len(lst)-1]
		if buddy < start {
			start = buddy
		}
		order++
	}
	m.free[order] = append(m.free[order], start)
}

// refFragment is Fragment as a per-frame loop: after poking the victim
// frame out of a huge page it re-frees the other 511 frames one at a
// time in ascending order and lets refFree coalesce them.
func refFragment(m *Memory, target float64) float64 {
	for m.FMFI() < target {
		n := len(m.free[MaxOrder])
		if n == 0 {
			break
		}
		idx := m.rng.Intn(n)
		blk := m.free[MaxOrder][idx]
		m.free[MaxOrder][idx] = m.free[MaxOrder][n-1]
		m.free[MaxOrder] = m.free[MaxOrder][:n-1]
		victim := blk + uint32(m.rng.Intn(1<<MaxOrder))
		m.freeFrames -= 1 << MaxOrder
		for f := blk; f < blk+1<<MaxOrder; f++ {
			if f != victim {
				refFree(m, f, 0)
			}
		}
	}
	return m.FMFI()
}

// Fragment leaves exactly the allocator state of the per-frame
// reference: every free list entry in order, the free-frame count, the
// FMFI it reports and the RNG cursor. Each run starts after one
// Alloc(3), so the lower lists already hold split blocks that the new
// blocks must land behind.
func TestFragmentMatchesReference(t *testing.T) {
	schedules := [][]float64{{0.1}, {0.5}, {0.05, 0.3, 0.6}}
	for _, seed := range []int64{1, 2, 3, 42} {
		for _, targets := range schedules {
			got, want := NewMemory(1<<30, seed), NewMemory(1<<30, seed)
			got.Alloc(3)
			want.Alloc(3)
			for _, target := range targets {
				g, w := got.Fragment(target), refFragment(want, target)
				if g != w {
					t.Fatalf("seed %d targets %v: Fragment(%v) reached FMFI %v, reference %v", seed, targets, target, g, w)
				}
			}
			for o := 0; o <= MaxOrder; o++ {
				if !slices.Equal(got.free[o], want.free[o]) {
					t.Fatalf("seed %d targets %v: order %d free list differs from the reference (%d vs %d blocks)",
						seed, targets, o, len(got.free[o]), len(want.free[o]))
				}
			}
			if got.freeFrames != want.freeFrames {
				t.Errorf("seed %d targets %v: %d free frames, reference %d", seed, targets, got.freeFrames, want.freeFrames)
			}
			gs, gd := got.src.State()
			ws, wd := want.src.State()
			if gs != ws || gd != wd {
				t.Errorf("seed %d targets %v: RNG at (%d, %d), reference (%d, %d)", seed, targets, gs, gd, ws, wd)
			}
		}
	}
}

// Fragment's allocations are the free lists' growth, not per-frame
// work: a hard count that holds on any machine.
func TestFragmentAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		NewMemory(1<<30, 42).Fragment(0.5)
	})
	if allocs > 200 {
		t.Errorf("NewMemory(1 GiB) + Fragment(0.5) made %.0f allocations, want <= 200", allocs)
	}
}
