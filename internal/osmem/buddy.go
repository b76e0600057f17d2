// Package osmem models the operating-system side of physical memory:
// a buddy allocator over 4KiB frames, transparent huge pages (2MiB), a
// deliberate fragmenter, and the free-memory fragmentation index (FMFI)
// of Gorman & Whitcroft used by the paper to quantify its 10% and 50%
// fragmentation scenarios (Sec. VII).
//
// The paper's RAP and EWLR mechanisms live or die by physical-address
// locality: transparent huge pages leave row-address MSB locality
// (region 1 of Fig. 4), which fragmentation destroys. Simulating the
// allocator — rather than feeding synthetic physical addresses —
// reproduces that effect mechanically.
package osmem

import (
	"math/rand"

	"eruca/internal/rng"
)

const (
	// FrameBytes is the base page size.
	FrameBytes = 4 << 10
	// MaxOrder is the largest buddy order; order 9 blocks are 2MiB huge
	// pages.
	MaxOrder = 9
	// HugeBytes is the huge-page size.
	HugeBytes = FrameBytes << MaxOrder
)

// Memory is a physical-memory buddy allocator. It has no free path:
// every allocation, the fragmenter's included, lasts as long as the
// Memory, so blocks only ever split and never coalesce. It is not safe
// for concurrent use.
type Memory struct {
	frames     uint32
	free       [MaxOrder + 1][]uint32 // stacks of free block start frames
	freeFrames uint32
	rng        *rand.Rand
	src        *rng.Source // counting source behind rng, for checkpoint/restore
}

// NewMemory builds an allocator over totalBytes of physical memory
// (rounded down to a whole number of max-order blocks). The seed drives
// the fragmenter.
func NewMemory(totalBytes uint64, seed int64) *Memory {
	blocks := uint32(totalBytes / HugeBytes)
	m := &Memory{frames: blocks << MaxOrder}
	m.rng, m.src = rng.New(seed)
	m.freeFrames = m.frames
	// Push in descending address order so allocation proceeds from low
	// addresses upward, like a freshly booted system.
	for b := int(blocks) - 1; b >= 0; b-- {
		m.free[MaxOrder] = append(m.free[MaxOrder], uint32(b)<<MaxOrder)
	}
	return m
}

// TotalBytes reports the managed capacity.
func (m *Memory) TotalBytes() uint64 { return uint64(m.frames) * FrameBytes }

// Alloc allocates a block of 2^order frames, returning its start frame.
// ok is false when no block can satisfy the request.
func (m *Memory) Alloc(order int) (start uint32, ok bool) {
	for o := order; o <= MaxOrder; o++ {
		n := len(m.free[o])
		if n == 0 {
			continue
		}
		blk := m.free[o][n-1]
		m.free[o] = m.free[o][:n-1]
		// Split down, pushing upper halves so the lower half is served
		// first (keeps consecutive allocations contiguous).
		for o > order {
			o--
			m.free[o] = append(m.free[o], blk+1<<uint(o))
		}
		m.freeFrames -= 1 << uint(order)
		return blk, true
	}
	return 0, false
}

// FMFI reports the free-memory fragmentation index at huge-page
// granularity: the fraction of free memory that sits in blocks smaller
// than a huge page and therefore cannot back one [Gorman & Whitcroft;
// Ingens].
func (m *Memory) FMFI() float64 {
	if m.freeFrames == 0 {
		return 1
	}
	hugeFree := uint64(len(m.free[MaxOrder])) << MaxOrder
	return 1 - float64(hugeFree)/float64(m.freeFrames)
}

// Fragment allocates scattered single frames until FMFI reaches the
// target (within tolerance), mimicking the fragmentation tool of the
// paper's methodology [34]. The frames stay allocated for the lifetime
// of the Memory. It returns the achieved FMFI.
func (m *Memory) Fragment(target float64) float64 {
	for m.FMFI() < target {
		n := len(m.free[MaxOrder])
		if n == 0 {
			break
		}
		// Poke one frame out of a random pristine huge block: the other
		// 511 frames stay free but can no longer back a huge page.
		idx := m.rng.Intn(n)
		blk := m.free[MaxOrder][idx]
		m.free[MaxOrder][idx] = m.free[MaxOrder][n-1]
		m.free[MaxOrder] = m.free[MaxOrder][:n-1]
		victim := blk + uint32(m.rng.Intn(1<<MaxOrder))
		// The other 511 frames form nine free blocks, one per order 0–8:
		// the buddy of the victim's ancestor at that order. Freeing the
		// frames one by one in ascending order would coalesce into
		// exactly these, each left at the tail of its list as here, since
		// every merge removes the block pushed last
		// (TestFragmentMatchesReference).
		for o := 0; o < MaxOrder; o++ {
			m.free[o] = append(m.free[o], victim&^(1<<uint(o)-1)^1<<uint(o))
		}
		m.freeFrames--
	}
	return m.FMFI()
}
