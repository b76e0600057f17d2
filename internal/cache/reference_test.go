package cache

import (
	"bytes"
	"fmt"
	"testing"

	"eruca/internal/snapshot"
)

// refLine is one way of the reference model: the per-line record the
// flat setAssoc arrays replaced.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// refSetAssoc is the set-of-line-structs level that setAssoc must
// match way for way: the same stamps, the same victims, the same
// snapshot bytes.
type refSetAssoc struct {
	sets    [][]refLine
	setMask uint64
	tick    uint64

	hits, misses uint64
}

func newRefSetAssoc(bytes, ways, lineBytes int) *refSetAssoc {
	nsets := bytes / (ways * lineBytes)
	c := &refSetAssoc{setMask: uint64(nsets - 1), sets: make([][]refLine, nsets)}
	for i := range c.sets {
		c.sets[i] = make([]refLine, ways)
	}
	return c
}

func (c *refSetAssoc) lookup(addr uint64, markDirty bool) bool {
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

func (c *refSetAssoc) fill(addr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	c.tick++
	set := c.sets[addr&c.setMask]
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			goto place
		}
		if set[i].used < set[vi].used {
			vi = i
		}
	}
	victim, victimDirty, evicted = set[vi].tag, set[vi].dirty, true
place:
	set[vi] = refLine{tag: addr, valid: true, dirty: dirty, used: c.tick}
	return victim, victimDirty, evicted
}

func (c *refSetAssoc) absorb(addr uint64) bool {
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

func (c *refSetAssoc) snapshot(e *snapshot.Encoder) {
	e.U64(c.tick)
	e.U64(c.hits)
	e.U64(c.misses)
	e.Int(len(c.sets))
	e.Int(len(c.sets[0]))
	for _, set := range c.sets {
		for i := range set {
			e.U64(set[i].tag)
			e.Bool(set[i].valid)
			e.Bool(set[i].dirty)
			e.U64(set[i].used)
		}
	}
}

// refHierarchy is Hierarchy built from reference levels.
type refHierarchy struct {
	l1  []*refSetAssoc
	llc *refSetAssoc
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{llc: newRefSetAssoc(cfg.LLCBytes, cfg.LLCWays, cfg.LineBytes)}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, newRefSetAssoc(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes))
	}
	return h
}

func (h *refHierarchy) access(core int, lineAddr uint64, write bool) Outcome {
	l1 := h.l1[core]
	if l1.lookup(lineAddr, write) {
		return Outcome{Level: L1}
	}
	var out Outcome
	if h.llc.lookup(lineAddr, false) {
		out.Level = LLC
	} else {
		out.Level = Mem
		if v, dirty, evicted := h.llc.fill(lineAddr, false); evicted && dirty {
			out.writeback(v)
		}
	}
	if v, dirty, evicted := l1.fill(lineAddr, write); evicted && dirty && !h.llc.absorb(v) {
		out.writeback(v)
	}
	return out
}

func (h *refHierarchy) snapshot(e *snapshot.Encoder) {
	e.Int(len(h.l1))
	for _, l1 := range h.l1 {
		l1.snapshot(e)
	}
	h.llc.snapshot(e)
}

// refGeometries are the shapes the reference check covers: one set per
// level, the test hierarchy, a 16-way LLC, and direct-mapped L1s.
var refGeometries = []Config{
	{L1Bytes: 4 * 64, L1Ways: 4, LLCBytes: 8 * 64, LLCWays: 8, LineBytes: 64},
	{L1Bytes: 1 << 10, L1Ways: 2, LLCBytes: 4 << 10, LLCWays: 4, LineBytes: 64},
	{L1Bytes: 2 << 10, L1Ways: 8, LLCBytes: 16 << 10, LLCWays: 16, LineBytes: 64},
	{L1Bytes: 512, L1Ways: 1, LLCBytes: 2 << 10, LLCWays: 2, LineBytes: 64},
}

// checkCacheReference drives a Hierarchy and the reference with one
// random stream of reads and writes from cfg.Cores cores. After every
// access both must report the same Outcome and the same per-level
// counters; every 64 accesses their snapshots must match byte for
// byte, and every 256 the Hierarchy is replaced by one restored from
// the reference's snapshot.
func checkCacheReference(t *testing.T, cfg Config, seed uint64, steps int) {
	t.Helper()
	got, want := MustNew(cfg), newRefHierarchy(cfg)
	x := seed | 1
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	// A pool three times the LLC, so that both levels evict, with a
	// short history of recent lines for reuse.
	pool := 3 * cfg.LLCBytes / cfg.LineBytes
	var recent [8]uint64
	snap := func(f func(*snapshot.Encoder)) []byte {
		var e snapshot.Encoder
		f(&e)
		return e.Seal()
	}
	for i := 1; i <= steps; i++ {
		core, write := rnd(cfg.Cores), rnd(3) == 0
		var line uint64
		if rnd(4) == 0 {
			line = recent[rnd(len(recent))]
		} else {
			line = uint64(rnd(pool))
			recent[i%len(recent)] = line
		}
		g, w := got.Access(core, line, write), want.access(core, line, write)
		if g.Level != w.Level || fmt.Sprint(g.Writebacks()) != fmt.Sprint(w.Writebacks()) {
			t.Fatalf("%+v seed %d access %d (core %d line %d write %v): got %v %v, reference %v %v",
				cfg, seed, i, core, line, write, g.Level, g.Writebacks(), w.Level, w.Writebacks())
		}
		for c := 0; c < cfg.Cores; c++ {
			if gs, ws := got.L1Stats(c), (Stats{want.l1[c].hits, want.l1[c].misses}); gs != ws {
				t.Fatalf("%+v seed %d access %d: L1[%d] stats %+v, reference %+v", cfg, seed, i, c, gs, ws)
			}
		}
		if gs, ws := got.LLCStats(), (Stats{want.llc.hits, want.llc.misses}); gs != ws {
			t.Fatalf("%+v seed %d access %d: LLC stats %+v, reference %+v", cfg, seed, i, gs, ws)
		}
		if i%64 != 0 {
			continue
		}
		wb := snap(want.snapshot)
		if gb := snap(got.Snapshot); !bytes.Equal(gb, wb) {
			t.Fatalf("%+v seed %d access %d: snapshot bytes differ from the reference", cfg, seed, i)
		}
		if i%256 == 0 {
			d, err := snapshot.Open(wb)
			if err != nil {
				t.Fatal(err)
			}
			got = MustNew(cfg)
			if err := got.Restore(d); err != nil {
				t.Fatalf("%+v seed %d access %d: restore: %v", cfg, seed, i, err)
			}
		}
	}
}

// The flat sets behave exactly like the line-struct model, on every
// geometry and with one to four cores.
func TestCacheMatchesReference(t *testing.T) {
	for gi, cfg := range refGeometries {
		for cores := 1; cores <= 4; cores++ {
			cfg.Cores = cores
			checkCacheReference(t, cfg, uint64(gi*7+cores)*2654435761, 5000)
		}
	}
}

func FuzzCacheReference(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(uint64(i)*7919+1, uint8(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, geom, cores uint8) {
		cfg := refGeometries[int(geom)%len(refGeometries)]
		cfg.Cores = 1 + int(cores%4)
		checkCacheReference(t, cfg, seed, 1000)
	})
}

// A snapshot whose empty way carries a tag, a dirty bit or a stamp
// describes state the flat sets cannot hold, and restore rejects it.
func TestRestoreRejectsStateInEmptyWay(t *testing.T) {
	cfg := refGeometries[0]
	cfg.Cores = 1
	ref := newRefHierarchy(cfg)
	ref.access(0, 5, false)
	ref.llc.sets[0][3].used = 9 // an empty way with a stamp
	var e snapshot.Encoder
	ref.snapshot(&e)
	d, err := snapshot.Open(e.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if err := MustNew(cfg).Restore(d); err == nil {
		t.Error("restore accepted a stamped empty way")
	}
}
