package cache

import (
	"fmt"
	"math"

	"eruca/internal/snapshot"
)

// snapshot writes, for each way, the fields of the historical
// per-line record in their historical order: tag, valid, dirty and LRU
// stamp. An empty way, never filled, writes zeros.
func (c *setAssoc) snapshot(e *snapshot.Encoder) {
	e.U64(c.tick)
	e.U64(c.hits)
	e.U64(c.misses)
	e.Int(len(c.tags) / c.ways)
	e.Int(c.ways)
	for i, t := range c.tags {
		if t == 0 {
			e.U64(0)
		} else {
			e.U64(t - 1)
		}
		e.Bool(t != 0)
		e.Bool(c.dirty[i])
		e.U64(c.used[i])
	}
}

func (c *setAssoc) restore(d *snapshot.Decoder) error {
	c.tick = d.U64()
	c.hits = d.U64()
	c.misses = d.U64()
	nsets := d.Int()
	ways := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nsets != len(c.tags)/c.ways || ways != c.ways {
		return fmt.Errorf("cache: snapshot geometry %dx%d does not match configured %dx%d",
			nsets, ways, len(c.tags)/c.ways, c.ways)
	}
	for i := range c.tags {
		tag, valid := d.U64(), d.Bool()
		c.dirty[i], c.used[i] = d.Bool(), d.U64()
		switch {
		case valid && tag != math.MaxUint64:
			c.tags[i] = tag + 1
		case valid || tag != 0 || c.dirty[i] || c.used[i] != 0:
			return fmt.Errorf("cache: snapshot way %d holds state an empty way cannot", i)
		default:
			c.tags[i] = 0
		}
	}
	return d.Err()
}

// Snapshot serializes the full hierarchy state: every way's tag,
// valid/dirty bits and LRU timestamp, plus per-level hit/miss counters.
func (h *Hierarchy) Snapshot(e *snapshot.Encoder) {
	e.Int(len(h.l1))
	for _, l1 := range h.l1 {
		l1.snapshot(e)
	}
	h.llc.snapshot(e)
}

// Restore rebuilds the hierarchy state from a Snapshot stream into an
// identically configured hierarchy.
func (h *Hierarchy) Restore(d *snapshot.Decoder) error {
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(h.l1) {
		return fmt.Errorf("cache: snapshot has %d L1s, hierarchy has %d", n, len(h.l1))
	}
	for _, l1 := range h.l1 {
		if err := l1.restore(d); err != nil {
			return err
		}
	}
	return h.llc.restore(d)
}
