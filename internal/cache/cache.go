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

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

type setAssoc struct {
	sets    [][]line
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
	c := &setAssoc{setMask: uint64(nsets - 1)}
	c.sets = make([][]line, nsets)
	store := make([]line, nsets*ways)
	for i := range c.sets {
		c.sets[i], store = store[:ways], store[ways:]
	}
	return c, nil
}

// lookup probes for the line; on hit it refreshes LRU and optionally
// marks dirty.
func (c *setAssoc) lookup(addr uint64, markDirty bool) bool {
	c.tick++
	set := c.sets[addr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			set[i].used = c.tick
			if markDirty {
				set[i].dirty = true
			}
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// fill inserts the line, evicting LRU; it returns the victim line
// address and whether it was dirty.
func (c *setAssoc) fill(addr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	c.tick++
	set := c.sets[addr&c.setMask]
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			evicted = false
			goto place
		}
		if set[i].used < set[vi].used {
			vi = i
		}
	}
	victim, victimDirty, evicted = set[vi].tag, set[vi].dirty, true
place:
	set[vi] = line{tag: addr, valid: true, dirty: dirty, used: c.tick}
	return victim, victimDirty, evicted
}

// absorb probes for the line without touching hit/miss statistics and
// marks it dirty when present — the path a dirty upper-level victim
// takes on its way down.
func (c *setAssoc) absorb(addr uint64) bool {
	c.tick++
	set := c.sets[addr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			set[i].used = c.tick
			set[i].dirty = true
			return true
		}
	}
	return false
}

// invalidate drops the line if present, reporting whether it was dirty.
func (c *setAssoc) invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set := c.sets[addr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			set[i].valid = false
			return set[i].dirty, true
		}
	}
	return false, false
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
