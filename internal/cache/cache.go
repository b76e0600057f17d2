// Package cache models the processor cache hierarchy of Tab. III:
// per-core L1D (32KiB, 8-way) above a shared LLC (1MiB per core,
// 16-way), both LRU, write-back and write-allocate. The hierarchy is
// trace-driven with magic fill: state updates at access time and the
// caller applies hit latencies; misses and dirty evictions surface as
// memory reads and writes.
package cache

import "fmt"

// Level reports where an access was served.
type Level int

const (
	// L1 hit.
	L1 Level = iota
	// LLC hit (L1 miss).
	LLC
	// Mem: missed the whole hierarchy; a memory fetch is required.
	Mem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case LLC:
		return "LLC"
	}
	return "MEM"
}

// Outcome summarizes one access: where it hit and any dirty lines pushed
// out to memory. An access evicts at most two lines to memory (an LLC
// victim and an L1 victim), so they fit in place and an access never
// allocates.
type Outcome struct {
	Level Level
	wb    [2]uint64
	nwb   int
}

// Writebacks lists the line addresses evicted dirty to memory. The
// slice points into o.
func (o *Outcome) Writebacks() []uint64 { return o.wb[:o.nwb] }

func (o *Outcome) writeback(line uint64) {
	o.wb[o.nwb] = line
	o.nwb++
}

// setAssoc is one set-associative, LRU level. Its lines are stored
// flat, way w of set s at index s*ways+w, in three parallel arrays, so
// that a probe reads one set's tags from contiguous memory. Lines are
// never invalidated, so an empty way is exactly a way never filled.
type setAssoc struct {
	tags    []uint64 // line address + 1; 0 marks an empty way
	used    []uint64 // LRU tick stamp of the way's last fill or hit
	dirty   []bool
	ways    int
	setMask uint64
	tick    uint64

	hits, misses uint64
}

func newSetAssoc(bytes, ways, lineBytes int) (*setAssoc, error) {
	if ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry (%d bytes, %d ways, %d-byte lines)", bytes, ways, lineBytes)
	}
	nsets := bytes / (ways * lineBytes)
	if nsets == 0 || nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d (from %d bytes, %d ways, %d-byte lines) must be a positive power of two",
			nsets, bytes, ways, lineBytes)
	}
	return &setAssoc{
		tags:    make([]uint64, nsets*ways),
		used:    make([]uint64, nsets*ways),
		dirty:   make([]bool, nsets*ways),
		ways:    ways,
		setMask: uint64(nsets - 1),
	}, nil
}

// find returns the index of the way holding addr, or -1.
func (c *setAssoc) find(addr uint64) int {
	base := int(addr&c.setMask) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == addr+1 {
			return base + i
		}
	}
	return -1
}

// lookup probes for the line; on hit it refreshes LRU and optionally
// marks dirty.
func (c *setAssoc) lookup(addr uint64, markDirty bool) bool {
	c.tick++
	i := c.find(addr)
	if i < 0 {
		c.misses++
		return false
	}
	c.used[i] = c.tick
	if markDirty {
		c.dirty[i] = true
	}
	c.hits++
	return true
}

// fill inserts the line into the first empty way of its set, or else
// over the first way with the oldest stamp; it returns the victim line
// address and whether it was dirty.
func (c *setAssoc) fill(addr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	c.tick++
	base := int(addr&c.setMask) * c.ways
	tags := c.tags[base : base+c.ways]
	used := c.used[base : base+len(tags)]
	vi := 0
	for i, t := range tags {
		if t == 0 {
			vi = i
			goto place
		}
		if used[i] < used[vi] {
			vi = i
		}
	}
	victim, victimDirty, evicted = tags[vi]-1, c.dirty[base+vi], true
place:
	tags[vi], used[vi], c.dirty[base+vi] = addr+1, c.tick, dirty
	return victim, victimDirty, evicted
}

// absorb probes for the line without touching hit/miss statistics and
// marks it dirty when present — the path a dirty upper-level victim
// takes on its way down.
func (c *setAssoc) absorb(addr uint64) bool {
	c.tick++
	i := c.find(addr)
	if i < 0 {
		return false
	}
	c.used[i] = c.tick
	c.dirty[i] = true
	return true
}

// Stats reports hit/miss counts of one level.
type Stats struct{ Hits, Misses uint64 }

// Hierarchy is the full cache system for all cores.
type Hierarchy struct {
	l1        []*setAssoc
	llc       *setAssoc
	lineBytes int
}

// Config sizes the hierarchy.
type Config struct {
	Cores           int
	L1Bytes, L1Ways int
	LLCBytes        int // total shared capacity
	LLCWays         int
	LineBytes       int
}

// New builds the hierarchy, validating each level's geometry.
func New(cfg Config) (*Hierarchy, error) {
	llc, err := newSetAssoc(cfg.LLCBytes, cfg.LLCWays, cfg.LineBytes)
	if err != nil {
		return nil, fmt.Errorf("LLC: %w", err)
	}
	h := &Hierarchy{llc: llc, lineBytes: cfg.LineBytes}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := newSetAssoc(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes)
		if err != nil {
			return nil, fmt.Errorf("L1[%d]: %w", i, err)
		}
		h.l1 = append(h.l1, l1)
	}
	return h, nil
}

// MustNew is New for statically sized configurations; it panics on a
// bad geometry.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Access performs one load or store by a core at a physical line address
// (the address divided by the line size). The hierarchy is
// non-inclusive: L1 victims write back into the LLC, LLC victims go to
// memory.
func (h *Hierarchy) Access(core int, lineAddr uint64, write bool) Outcome {
	l1 := h.l1[core]
	if l1.lookup(lineAddr, write) {
		return Outcome{Level: L1}
	}

	var out Outcome
	llcHit := h.llc.lookup(lineAddr, false)
	if llcHit {
		out.Level = LLC
	} else {
		out.Level = Mem
		// Fill LLC; a dirty victim goes to memory.
		if v, dirty, evicted := h.llc.fill(lineAddr, false); evicted && dirty {
			out.writeback(v)
		}
	}

	// Fill L1 (write-allocate: stores install the line dirty). A dirty
	// L1 victim folds into the LLC when present there, otherwise it goes
	// to memory.
	if v, dirty, evicted := l1.fill(lineAddr, write); evicted && dirty && !h.llc.absorb(v) {
		out.writeback(v)
	}
	return out
}

// LineBytes reports the configured line size.
func (h *Hierarchy) LineBytes() int { return h.lineBytes }

// L1Stats reports one core's L1 counters.
func (h *Hierarchy) L1Stats(core int) Stats {
	return Stats{Hits: h.l1[core].hits, Misses: h.l1[core].misses}
}

// LLCStats reports the shared LLC counters.
func (h *Hierarchy) LLCStats() Stats {
	return Stats{Hits: h.llc.hits, Misses: h.llc.misses}
}
