package sim

import "math/bits"

// mshrTable maps each line with a fetch in flight to the loads waiting
// on it. It is an open-addressed table of power-of-two size: Fibonacci
// hashing picks a line's home slot, a collision probes the following
// slots in order, and a deletion shifts the rest of its probe chain
// back, so the table needs no tombstones. It doubles whenever an insert
// would push its load factor past 1/2.
type mshrTable struct {
	slots []mshrSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

// mshrSlot is one table slot: key is the line address + 1, and 0 marks
// a free slot.
type mshrSlot struct {
	key     uint64
	waiters []waiter
}

// newMSHRTable sizes a table for entries lines without growing.
func newMSHRTable(entries int) mshrTable {
	size := 2
	for size < 2*entries {
		size *= 2
	}
	var m mshrTable
	m.resize(size)
	return m
}

func (m *mshrTable) resize(size int) {
	m.slots = make([]mshrSlot, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	m.n = 0
}

// home is the slot a line's probe starts at.
func (m *mshrTable) home(line uint64) int {
	return int(line * 0x9E3779B97F4A7C15 >> m.shift)
}

// len reports the number of lines in the table.
func (m *mshrTable) len() int { return m.n }

// find returns the waiter list of line, or nil when no fetch of it is
// in flight. The pointer stays valid until the next put, remove or
// clear.
func (m *mshrTable) find(line uint64) *[]waiter {
	mask := len(m.slots) - 1
	for i := m.home(line); ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case line + 1:
			return &m.slots[i].waiters
		case 0:
			return nil
		}
	}
}

// put adds line, which must not be in the table, with its waiters.
func (m *mshrTable) put(line uint64, waiters []waiter) {
	if 2*(m.n+1) > len(m.slots) {
		old := m.slots
		m.resize(2 * len(old))
		for i := range old {
			if old[i].key != 0 {
				m.put(old[i].key-1, old[i].waiters)
			}
		}
	}
	mask := len(m.slots) - 1
	i := m.home(line)
	for m.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = mshrSlot{key: line + 1, waiters: waiters}
	m.n++
}

// remove deletes line and returns its waiters (nil when absent). Each
// later entry of the probe chain moves back into the hole unless its
// home lies after the hole, which keeps every entry reachable from its
// home without tombstones.
func (m *mshrTable) remove(line uint64) []waiter {
	mask := len(m.slots) - 1
	i := m.home(line)
	for m.slots[i].key != line+1 {
		if m.slots[i].key == 0 {
			return nil
		}
		i = (i + 1) & mask
	}
	waiters := m.slots[i].waiters
	for j := (i + 1) & mask; m.slots[j].key != 0; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].key-1))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = mshrSlot{}
	m.n--
	return waiters
}

// clear empties the table, keeping its size.
func (m *mshrTable) clear() {
	clear(m.slots)
	m.n = 0
}
