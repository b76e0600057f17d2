package osmem

import (
	"fmt"
	"sort"

	"eruca/internal/snapshot"
)

// Snapshot serializes the allocator's mutable state: the per-order free
// lists in exact LIFO order (allocation order matters — Alloc pops the
// most recently pushed block) and the fragmenter PRNG cursor. The
// freeFrames counter is derived from the free lists on restore.
func (m *Memory) Snapshot(e *snapshot.Encoder) {
	e.U32(m.frames)
	for o := 0; o <= MaxOrder; o++ {
		e.Int(len(m.free[o]))
		for _, start := range m.free[o] {
			e.U32(start)
		}
	}
	seed, draws := m.src.State()
	e.I64(seed)
	e.U64(draws)
}

// Restore rebuilds the allocator from a Snapshot stream. The Memory
// must have been constructed over the same capacity.
func (m *Memory) Restore(d *snapshot.Decoder) error {
	frames := d.U32()
	if err := d.Err(); err != nil {
		return err
	}
	if frames != m.frames {
		return fmt.Errorf("osmem: snapshot has %d frames, memory has %d", frames, m.frames)
	}
	var freeFrames uint32
	for o := 0; o <= MaxOrder; o++ {
		n := d.Count(4)
		m.free[o] = m.free[o][:0]
		for i := 0; i < n; i++ {
			start := d.U32()
			if d.Err() != nil {
				return d.Err()
			}
			if start>>uint(o) >= frames>>uint(o) && frames > 0 {
				return fmt.Errorf("osmem: snapshot free block %d order %d out of range", start, o)
			}
			m.free[o] = append(m.free[o], start)
			freeFrames += 1 << uint(o)
		}
	}
	m.freeFrames = freeFrames
	seed := d.I64()
	draws := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	m.src.Restore(seed, draws)
	return nil
}

func snapshotU32Map(e *snapshot.Encoder, m map[uint32]uint32) {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.Int(len(keys))
	for _, k := range keys {
		e.U32(k)
		e.U32(m[k])
	}
}

func restoreU32Map(d *snapshot.Decoder) map[uint32]uint32 {
	n := d.Count(8)
	m := make(map[uint32]uint32, n)
	for i := 0; i < n; i++ {
		k := d.U32()
		m[k] = d.U32()
	}
	return m
}

// Snapshot serializes the process's page tables, THP policy state and
// fault PRNG cursor. Maps are written in sorted key order so identical
// states produce identical bytes.
func (p *Process) Snapshot(e *snapshot.Encoder) {
	e.Bool(p.thp)
	e.F64(p.hugeLuck)
	snapshotU32Map(e, p.pages)
	snapshotU32Map(e, p.huge)
	keys := make([]uint32, 0, len(p.noHuge))
	for k := range p.noHuge {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.Int(len(keys))
	for _, k := range keys {
		e.U32(k)
	}
	seed, draws := p.src.State()
	e.I64(seed)
	e.U64(draws)
	e.U64(p.HugeMapped)
	e.U64(p.BaseMapped)
}

// Restore rebuilds the process from a Snapshot stream. The Process must
// have been created on the restored Memory.
func (p *Process) Restore(d *snapshot.Decoder) error {
	p.thp = d.Bool()
	p.hugeLuck = d.F64()
	p.pages = restoreU32Map(d)
	p.huge = restoreU32Map(d)
	n := d.Count(4)
	p.noHuge = make(map[uint32]bool, n)
	for i := 0; i < n; i++ {
		p.noHuge[d.U32()] = true
	}
	seed := d.I64()
	draws := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	p.src.Restore(seed, draws)
	p.HugeMapped = d.U64()
	p.BaseMapped = d.U64()
	return d.Err()
}
