package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host time on a shared virtual machine swings by tens of percent over
// seconds to minutes as neighbours change the speed of the host's
// cores and caches: one identical simulation took 145 ms or 245 ms on
// the 2-vCPU development VM, minutes apart. The benchmark's host times
// are therefore calibrated: a fixed kernel runs between operations, and
// the wall time of each interval between two kernel runs is scaled by
// calibNominal over the mean of their durations. Calibrated seconds are
// host seconds at the speed where one kernel run takes calibNominal.
//
// On that VM, normalising this way cut the run-to-run variation of
// blocks of six mix0 simulations from 8% to 2%. Shorter intervals track
// the host better: with 0.45 s simulations instead of 1.2 s ones, the
// spread of 10-second blocks fell from 6% to 2%. A kernel working in
// the core's private caches alone missed slow periods that the
// simulator, whose tables outgrow those caches, felt; adding a part
// over a 2 MiB table cut the spread of blocks of ten alone-ddr4
// simulations from 4–7% to 2.5–3.5% in two interleaved trials.

// calibNominal is the kernel time that defines one calibrated second:
// about the kernel's usual time on the development VM, so that a
// calibrated second there is about a wall second.
const calibNominal = 50 * time.Millisecond

// coreWords sizes the kernel's first table, 64 KiB, which stays in the
// core's private caches; memWords sizes its second, 2 MiB, which does
// not.
const (
	coreWords = 1 << 14
	memWords  = 1 << 19
)

// kernelSink keeps the compiler from dropping the kernel's work.
var kernelSink atomic.Uint32

// kernel runs the calibration kernel, fixed streams of
// xorshift-addressed read-modify-writes over a 64 KiB table of its own
// and then over mem, and returns its wall time. mem is cleared first,
// so every run does the same work.
func kernel(mem []uint32) time.Duration {
	start := time.Now()
	var core [coreWords]uint32
	x, acc := uint32(2463534242), uint32(0)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := 0; i < 3_000_000; i++ {
		x := next()
		v := core[x&(coreWords-1)]
		if v&1 == 0 {
			acc += v ^ x
		} else {
			acc ^= v + x>>3
		}
		core[(x>>7)&(coreWords-1)] = acc
	}
	clear(mem)
	mask := uint32(len(mem) - 1)
	for i := 0; i < 2_000_000; i++ {
		x := next()
		acc += mem[x&mask] ^ x
		mem[(x>>7)&mask] = acc
	}
	kernelSink.Add(acc)
	return time.Since(start)
}

// calClock accumulates calibrated time. Each tick runs the kernel and
// credits the wall time since the previous tick's kernel run.
type calClock struct {
	cores     int        // kernels per tick: the cores the measured work uses (0 means 1)
	mem       [][]uint32 // each kernel's 2 MiB table, made at the first tick
	started   bool
	mark      time.Time     // end of the previous kernel run
	ref       time.Duration // the previous kernel run's time
	wall, cal time.Duration // totals credited so far
}

// tick credits the interval since the previous tick and returns its
// scale: calibrated over wall time. The first tick only starts the
// clock and returns 1.
func (c *calClock) tick() float64 {
	end := time.Now()
	ref := c.kernels()
	scale := 1.0
	if c.started {
		scale = float64(calibNominal) / float64((c.ref+ref)/2)
		wall := end.Sub(c.mark)
		c.wall += wall
		c.cal += time.Duration(float64(wall) * scale)
	}
	c.started, c.ref, c.mark = true, ref, time.Now()
	return scale
}

// kernels runs one kernel per core at once and returns their mean time.
func (c *calClock) kernels() time.Duration {
	n := max(c.cores, 1)
	for len(c.mem) < n {
		c.mem = append(c.mem, make([]uint32, memWords))
	}
	if n == 1 {
		return kernel(c.mem[0])
	}
	times := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			times[i] = kernel(c.mem[i])
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return sum / time.Duration(n)
}

// collect runs a full garbage collection right after a tick, outside
// the credited intervals.
func (c *calClock) collect() {
	runtime.GC()
	c.mark = time.Now()
}
