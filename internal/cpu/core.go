// Package cpu models the out-of-order cores of Tab. III at the level of
// detail the memory study needs (the role Sniper plays in the paper):
// a trace-driven front end with fetch/issue width 8, a 192-entry ROB
// whose head blocks on incomplete loads, a 32-entry LSQ bounding
// memory-level parallelism, and posted stores. Non-memory instructions
// retire at full width; all timing pressure comes from the memory
// system behind the MemSystem interface.
package cpu

// Source feeds the core instructions: a run of `gap` non-memory
// instructions followed by one memory operation.
type Source interface {
	Next() (gap int, write bool, va uint64)
}

// MemSystem services the core's memory instructions (caches + DRAM).
type MemSystem interface {
	// Access issues one memory instruction for a core at a virtual
	// address. It returns:
	//   accept  - false when resources (queues) are exhausted; the core
	//             must stall and retry;
	//   pending - completion will be signalled through done;
	//   doneAt  - completion CPU cycle when pending is false.
	// done must not be retained past its single invocation.
	Access(core int, va uint64, write bool, done func()) (accept, pending bool, doneAt int64)
}

// read is one in-flight load occupying a ROB position. Records are
// recycled through the core's free list together with their pre-bound
// completion closures, so steady-state execution does not allocate per
// load.
type read struct {
	pos     int64 // instruction index in program order
	ready   bool  // completion signalled (memory) or timestamp known
	readyAt int64 // completion cycle when ready by timestamp

	// complete is the pre-bound completion callback handed to
	// MemSystem.Access; allocated once per pooled record.
	complete func()
}

// Core is one simulated core. Create with New; not safe for concurrent
// use.
type Core struct {
	id    int
	width int
	rob   int64
	lsq   int

	src Source
	mem MemSystem

	fetched int64
	retired int64

	// reads holds in-flight loads in program order as a sliding window:
	// reads[readHead:] are live, the prefix has retired and is compacted
	// away periodically. The head read blocks retirement.
	reads    []*read
	readHead int
	free     []*read // recycled read records
	inflight int     // LSQ occupancy: loads awaiting data

	gap     int // remaining non-memory instructions before pendingOp
	hasOp   bool
	opWrite bool
	opVA    uint64

	// wakeAt is the first CPU cycle at which a sleeping core ticks for
	// real; before it, Tick only counts the stalled cycle. Zero means
	// awake. A core sleeps after a tick without progress when only its
	// own reads can unblock it (see sleep); every read completion wakes
	// it. Not checkpointed: a restored core starts awake.
	wakeAt int64

	// Target is the instruction count after which FinishedAt is latched.
	Target     int64
	FinishedAt int64 // CPU cycle when Target retired (0 until then)
	// Warmup marks the retirement count at which measurement starts;
	// WarmupAt records the cycle it was reached. IPC covers
	// [WarmupAt, FinishedAt].
	Warmup   int64
	WarmupAt int64

	// Counters.
	MemOps  uint64
	Loads   uint64
	Stores  uint64
	Stalled uint64 // cycles with zero fetch progress
}

// New builds a core.
func New(id, width, rob, lsq int, target int64, src Source, mem MemSystem) *Core {
	return &Core{id: id, width: width, rob: int64(rob), lsq: lsq, src: src, mem: mem, Target: target}
}

// Done reports whether the core has retired its target.
func (c *Core) Done() bool { return c.FinishedAt > 0 }

// Retired reports retired instructions.
func (c *Core) Retired() int64 { return c.retired }

// Warmed reports whether the core has passed its warmup point.
func (c *Core) Warmed() bool { return c.Warmup == 0 || c.WarmupAt > 0 }

// IPC reports retired instructions per cycle over the measured window
// (warmup to target), 0 before the target is reached.
func (c *Core) IPC() float64 {
	if c.FinishedAt <= 0 {
		return 0
	}
	return float64(c.Target-c.Warmup) / float64(c.FinishedAt-c.WarmupAt)
}

// Progress returns a monotonically-increasing stamp of architectural
// progress. An unchanged stamp across a window means the core neither
// fetched nor retired anything during it.
func (c *Core) Progress() int64 { return c.fetched + c.retired }

// neverCPU marks "no self-driven progress possible".
const neverCPU = int64(1) << 62

// NextEventCycle reports a lower bound on the next CPU cycle (strictly
// after now) at which this core could make progress without an external
// memory-system event: the head read's already-known completion time,
// now+1 when retirement or non-memory fetch work is available, or a far
// future when the core is entirely blocked on the memory system (LSQ
// full, queue backpressure, or a pending head load). The run
// loop uses it, together with the memory-side bounds, to fast-forward
// provably-idle windows.
func (c *Core) NextEventCycle(now int64) int64 {
	bound := neverCPU
	if c.retired < c.fetched {
		if c.readHead < len(c.reads) && c.reads[c.readHead].pos == c.retired {
			if r := c.reads[c.readHead]; r.ready {
				t := r.readyAt
				if t <= now {
					t = now + 1
				}
				if t < bound {
					bound = t
				}
			}
			// else: the head load awaits a memory completion, which is
			// covered by the controller / event bounds.
		} else {
			return now + 1 // non-memory retirement available
		}
	}
	if c.fetched-c.retired < c.rob {
		if !c.hasOp || c.gap > 0 {
			return now + 1 // non-memory fetch work available
		}
		// The pending memory op is blocked on LSQ space or queue
		// acceptance — both resolve only through memory-system events.
	}
	return bound
}

// FastForward accounts for skipped quiescent CPU cycles: the core was
// provably unable to fetch during the window, so each skipped cycle
// would have counted as a stall in a per-cycle run.
func (c *Core) FastForward(cpuCycles int64) { c.Stalled += uint64(cpuCycles) }

// getRead takes a read record from the free list (or allocates one with
// its completion closure) and stamps it for the given ROB position.
func (c *Core) getRead(pos int64) *read {
	var r *read
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free = c.free[:n-1]
		r.ready, r.readyAt = false, 0
	} else {
		r = &read{}
		r.complete = func() {
			r.ready = true
			c.inflight--
			c.wakeAt = 0
		}
	}
	r.pos = pos
	return r
}

// popRead retires the head read, recycling its record and compacting the
// sliding window once the dead prefix dominates.
func (c *Core) popRead() {
	c.free = append(c.free, c.reads[c.readHead])
	c.readHead++
	if c.readHead == len(c.reads) {
		c.reads = c.reads[:0]
		c.readHead = 0
	} else if c.readHead > 64 && c.readHead*2 >= len(c.reads) {
		n := copy(c.reads, c.reads[c.readHead:])
		c.reads = c.reads[:n]
		c.readHead = 0
	}
}

// Tick advances the core by one CPU cycle. A sleeping core only counts
// the stalled cycle, which is all its full tick would do.
func (c *Core) Tick(now int64) {
	if now < c.wakeAt {
		c.Stalled++
		return
	}
	c.tick(now)
}

func (c *Core) tick(now int64) {
	retired := c.retired
	c.retire(now)
	if !c.fetch(now) && c.retired == retired {
		c.sleep()
	}
}

// sleep puts a core whose tick made no progress to sleep when it can
// only resume through one of its own reads: the ROB is full, or the
// LSQ is full with a load pending. Either way the head read blocks
// retirement, so the core's state cannot change until that read's
// known readyAt or until a read completion, which wakes it. A core
// refused by queue or spill backpressure stays awake: acceptance
// depends on memory-system state the core does not see change, so it
// must retry every cycle.
func (c *Core) sleep() {
	lsqFull := c.hasOp && c.gap == 0 && !c.opWrite && c.inflight >= c.lsq
	if c.fetched-c.retired < c.rob && !lsqFull {
		return
	}
	c.wakeAt = neverCPU
	if c.readHead < len(c.reads) { // empty only with a zero-entry ROB or LSQ
		if r := c.reads[c.readHead]; r.ready {
			c.wakeAt = r.readyAt
		}
	}
}

func (c *Core) retire(now int64) {
	budget := c.width
	for budget > 0 && c.retired < c.fetched {
		if c.readHead < len(c.reads) && c.reads[c.readHead].pos == c.retired {
			r := c.reads[c.readHead]
			if !r.ready || now < r.readyAt {
				break
			}
			c.popRead()
		}
		c.retired++
		budget--
	}
	if c.WarmupAt == 0 && c.Warmup > 0 && c.retired >= c.Warmup {
		c.WarmupAt = now
	}
	if c.FinishedAt == 0 && c.retired >= c.Target {
		c.FinishedAt = now
		if c.FinishedAt == 0 {
			c.FinishedAt = 1
		}
	}
}

// fetch fetches up to width instructions and reports whether it made
// progress.
func (c *Core) fetch(now int64) bool {
	budget := c.width
	progress := false
	for budget > 0 && c.fetched-c.retired < c.rob {
		if !c.hasOp && c.gap == 0 {
			g, w, va := c.src.Next()
			c.gap, c.opWrite, c.opVA = g, w, va
			c.hasOp = true
		}
		if c.gap > 0 {
			n := c.gap
			if n > budget {
				n = budget
			}
			if space := c.rob - (c.fetched - c.retired); int64(n) > space {
				n = int(space)
			}
			c.fetched += int64(n)
			c.gap -= n
			budget -= n
			progress = progress || n > 0
			continue
		}
		// Memory operation at instruction index c.fetched.
		if !c.opWrite && c.inflight >= c.lsq {
			break // LSQ full
		}
		pos := c.fetched
		if c.opWrite {
			accept, _, _ := c.mem.Access(c.id, c.opVA, true, nil)
			if !accept {
				break
			}
			c.Stores++
		} else {
			r := c.getRead(pos)
			accept, pending, doneAt := c.mem.Access(c.id, c.opVA, false, r.complete)
			if !accept {
				c.free = append(c.free, r)
				break
			}
			if !pending {
				r.ready = true
				r.readyAt = doneAt
			} else {
				c.inflight++
			}
			c.reads = append(c.reads, r)
			c.Loads++
		}
		c.MemOps++
		c.fetched++
		budget--
		progress = true
		c.hasOp = false
	}
	if !progress {
		c.Stalled++
	}
	return progress
}
