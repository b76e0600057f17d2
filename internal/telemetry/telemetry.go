// Package telemetry is the simulator's observability layer: a typed,
// cycle-attributed event tracer with per-rank ring buffers, live log2
// latency histograms, the DRAM command and mechanism totals each
// finished run hands over from its dram.Stats, and exporters (Chrome
// trace-event / Perfetto JSON, a compact binary spill format, and
// Prometheus text via internal/server).
//
// The design contract is that telemetry is purely observational: enabling
// or disabling it must never change a simulated command stream, a bus
// cycle count, or a sweep table (internal/sim proves this with an audit
// equivalence test). Sampling and windowing thin only the event trace;
// histograms and totals never pass through Emit. The hot path pays one
// nil check when telemetry is detached; histograms are lock-free
// atomics; event rings are preallocated and guarded by a single mutex
// per Set so concurrent readers (the erucad live endpoint, crash dumps)
// are race-clean while a run is in flight.
package telemetry

import (
	"fmt"
	"io"
	"sync"

	"eruca/internal/clock"
)

// Kind enumerates traced event types. The first six mirror dram.CmdKind
// one-to-one (same order) so the dram layer can translate with a cast;
// the rest are ERUCA-mechanism and run-loop events.
type Kind uint8

const (
	// EvACT..EvREF are DRAM commands on the bus.
	EvACT Kind = iota
	EvPRE
	EvRD
	EvWR
	EvPREA
	EvREF
	// EvRAPRemap marks an ACT whose plane ID was inverted by the
	// rank-adaptive plane policy on sub-bank 1, dodging an MSB collision
	// with the row open in the paired sub-bank (Sec. V-B).
	EvRAPRemap
	// EvDDBGrant marks a column command whose issue cycle was pulled in
	// by the dual data bus relative to the single-bus tCCD_L/tWTR_L
	// bound; Arg holds the bus cycles saved.
	EvDDBGrant
	// EvFFSkip marks a fast-forward jump over a quiescent bus window;
	// Arg holds the bus cycles skipped.
	EvFFSkip

	numKinds = int(EvFFSkip) + 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case EvACT:
		return "ACT"
	case EvPRE:
		return "PRE"
	case EvRD:
		return "RD"
	case EvWR:
		return "WR"
	case EvPREA:
		return "PREA"
	case EvREF:
		return "REF"
	case EvRAPRemap:
		return "RAP"
	case EvDDBGrant:
		return "DDB"
	case EvFFSkip:
		return "FFSKIP"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Flag annotates an event with ERUCA mechanism outcomes.
type Flag uint8

const (
	// FlagEWLRHit marks an ACT that reused an already-driven MWL.
	FlagEWLRHit Flag = 1 << iota
	// FlagEWLRMiss marks an ACT under an EWLR scheme that had to drive
	// the MWL (the complement of FlagEWLRHit; absent on non-EWLR runs).
	FlagEWLRMiss
	// FlagPartial marks a PRE that left the shared MWL driven.
	FlagPartial
	// FlagPlaneConflict marks a PRE forced by a plane-latch conflict.
	FlagPlaneConflict
	// FlagRAPRemap marks an ACT whose plane ID was RAP-inverted.
	FlagRAPRemap
)

// String renders the set flags compactly ("hit|partial" style).
func (f Flag) String() string {
	if f == 0 {
		return "-"
	}
	var s []byte
	add := func(name string) {
		if len(s) > 0 {
			s = append(s, '|')
		}
		s = append(s, name...)
	}
	if f&FlagEWLRHit != 0 {
		add("ewlr-hit")
	}
	if f&FlagEWLRMiss != 0 {
		add("ewlr-miss")
	}
	if f&FlagPartial != 0 {
		add("partial")
	}
	if f&FlagPlaneConflict != 0 {
		add("plane-conf")
	}
	if f&FlagRAPRemap != 0 {
		add("rap")
	}
	return string(s)
}

// Event is one traced occurrence, 32 bytes, value type: a bus-cycle
// timestamp plus full bank/sub-bank coordinates and a kind-specific Arg
// (row for ACT, saved/skipped cycles for DDB/FFSkip).
type Event struct {
	At   clock.Cycle // bus cycle
	Row  uint32      // ACT: row opened; PRE: row closed; else 0
	Arg  uint32      // EvDDBGrant: cycles saved; EvFFSkip: cycles skipped
	Run  uint16      // run index from BeginRun (Perfetto pid)
	Kind Kind
	Flag Flag
	Chan uint8
	Rank uint8
	Grp  uint8
	Bank uint8
	Sub  uint8
	Slot uint8
}

// String renders the event for crash dumps and logs.
func (e Event) String() string {
	switch e.Kind {
	case EvFFSkip:
		return fmt.Sprintf("@%d FFSKIP +%d cycles", e.At, e.Arg)
	case EvDDBGrant:
		return fmt.Sprintf("@%d DDB ch%d rk%d bg%d saved %d", e.At, e.Chan, e.Rank, e.Grp, e.Arg)
	}
	return fmt.Sprintf("@%d %s ch%d rk%d bg%d bk%d sb%d slot%d row %#x [%s]",
		e.At, e.Kind, e.Chan, e.Rank, e.Grp, e.Bank, e.Sub, e.Slot, e.Row, e.Flag)
}

// Options configures a Set. The zero value is usable: 256-deep rings, no
// sampling decimation, no window gate, a 1M-event capture cap, no spill.
type Options struct {
	// RingDepth is the per-rank recent-event ring capacity (default 256,
	// the crash-dump tail depth).
	RingDepth int
	// SampleEvery keeps 1-in-N events (0 or 1 keeps all). Sampling
	// thins only the trace (rings and capture buffer); histograms and
	// counters are exact at any setting.
	SampleEvery int
	// WindowFrom/WindowTo gate tracing to a bus-cycle interval; a zero
	// WindowTo means no upper bound.
	WindowFrom clock.Cycle
	WindowTo   clock.Cycle
	// CaptureMax bounds the in-memory full-trace buffer (0 selects the
	// default of 1<<20 events; negative keeps nothing in memory, so
	// every event streams to Spill). Beyond it events go to Spill if
	// set, else are dropped and counted in Counters.TraceDropped.
	CaptureMax int
	// Spill receives overflow events in the compact binary format
	// (WriteBinaryHeader + 32-byte records) once the capture buffer is
	// full. Typically an *os.File for >10M-event runs.
	Spill io.Writer
	// Capture disables the full-trace buffer entirely when false while
	// keeping rings and counters live. NewSet sets it; the zero Options
	// via New keeps capture on.
	Capture bool
}

// Set is one telemetry domain: counters, per-rank recent-event rings, and
// an optional full capture buffer. A nil *Set is inert: every method is
// nil-safe and the hot path reduces to one comparison.
type Set struct {
	C Counters

	opt  Options
	runs []string // run names by index

	mu       sync.Mutex
	rings    []ring // indexed chan*ranks+rank, configured lazily
	ranks    int    // ranks per channel for ring indexing
	capture  []Event
	spillErr error
	spilled  uint64
	seen     uint64 // events offered to the trace (for 1-in-N)
}

// ring is a fixed-capacity overwrite-oldest event buffer.
type ring struct {
	buf  []Event
	next int
	n    int
}

func (r *ring) push(e Event) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// tail returns up to n most-recent events, oldest first.
func (r *ring) tail(n int) []Event {
	if n > r.n {
		n = r.n
	}
	out := make([]Event, 0, n)
	for i := r.n - n; i < r.n; i++ {
		out = append(out, r.buf[(r.next-r.n+i+len(r.buf))%len(r.buf)])
	}
	return out
}

// New returns a Set with full capture enabled and default options.
func New() *Set { return NewSet(Options{Capture: true}) }

// NewSet returns a Set with the given options, applying defaults.
func NewSet(opt Options) *Set {
	if opt.RingDepth <= 0 {
		opt.RingDepth = 256
	}
	if opt.CaptureMax == 0 {
		opt.CaptureMax = 1 << 20
	} else if opt.CaptureMax < 0 {
		opt.CaptureMax = 0 // spill-only: nothing retained in memory
	}
	return &Set{opt: opt}
}

// Configure sizes the per-rank rings for a topology of channels×ranks.
// Safe to call more than once (grows, never shrinks below existing data).
func (s *Set) Configure(channels, ranks int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	want := channels * ranks
	if ranks > s.ranks {
		s.ranks = ranks
	}
	for len(s.rings) < want {
		s.rings = append(s.rings, ring{buf: make([]Event, s.opt.RingDepth)})
	}
}

// BeginRun registers a run scope (one simulated system/workload) and
// returns its index, which the emitter stamps into Event.Run (the
// Perfetto process ID) — stamping happens at the emitter, not here, so
// concurrent runs sharing one Set tag their events correctly. The name
// labels the process in trace viewers.
func (s *Set) BeginRun(name string) uint16 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs = append(s.runs, name)
	return uint16(len(s.runs) - 1)
}

// Runs returns the run names registered with BeginRun, by index.
func (s *Set) Runs() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.runs))
	copy(out, s.runs)
	return out
}

// Enabled reports whether the Set is live; callers keep their hot path to
// `if tel != nil` and call Emit unconditionally after that.
func (s *Set) Enabled() bool { return s != nil }

// Emit offers one event to the trace, subject to the window gate and
// 1-in-N sampling. Only the trace goes through Emit: the emitting layer
// feeds the histograms directly and each finished run hands over its
// totals, so sampling thins the trace and nothing else.
func (s *Set) Emit(e Event) {
	if s == nil {
		return
	}
	if s.opt.WindowTo != 0 && (e.At < s.opt.WindowFrom || e.At >= s.opt.WindowTo) {
		return
	}
	if s.opt.WindowTo == 0 && e.At < s.opt.WindowFrom {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if s.opt.SampleEvery > 1 && (s.seen-1)%uint64(s.opt.SampleEvery) != 0 {
		return
	}
	// Recent-event ring (crash-dump tail) — indexed by channel/rank.
	if s.ranks > 0 {
		idx := int(e.Chan)*s.ranks + int(e.Rank)
		if idx >= 0 && idx < len(s.rings) {
			s.rings[idx].push(e)
		}
	}
	if !s.opt.Capture {
		return
	}
	if len(s.capture) < s.opt.CaptureMax {
		s.capture = append(s.capture, e)
		return
	}
	// Capture full: spill or drop.
	if s.opt.Spill != nil && s.spillErr == nil {
		if s.spilled == 0 {
			s.spillErr = WriteBinaryHeader(s.opt.Spill)
		}
		if s.spillErr == nil {
			s.spillErr = writeBinaryEvent(s.opt.Spill, e)
		}
		if s.spillErr == nil {
			s.spilled++
			return
		}
	}
	s.C.TraceDropped.Add(1)
}

// DropRings frees the per-rank recent-event rings, keeping the
// counters, histograms, run names and capture buffer. Recent returns
// nothing afterwards, and later events reach no ring. erucad calls it
// on finished jobs whose event tails have aged out.
func (s *Set) DropRings() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rings, s.ranks = nil, 0
}

// Events returns a copy of the in-memory capture buffer, in emit order.
func (s *Set) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.capture))
	copy(out, s.capture)
	return out
}

// Recent returns up to n most-recent events for one channel/rank ring,
// oldest first. With rank < 0 it merges every ring of the channel; with
// chan < 0 it merges all rings. Merged output is sorted by cycle.
func (s *Set) Recent(channel, rank, n int) []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if channel >= 0 && rank >= 0 && s.ranks > 0 {
		idx := channel*s.ranks + rank
		if idx < len(s.rings) {
			return s.rings[idx].tail(n)
		}
		return nil
	}
	var all []Event
	for i := range s.rings {
		if channel >= 0 && s.ranks > 0 && i/s.ranks != channel {
			continue
		}
		all = append(all, s.rings[i].tail(n)...)
	}
	sortEvents(all)
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// sortEvents orders by cycle, stable for equal cycles (insertion sort is
// fine: crash-dump tails are ≤ a few hundred events).
func sortEvents(ev []Event) {
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].At < ev[j-1].At; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}

// Spilled reports how many events went to the spill writer, and any
// write error encountered (subsequent events are dropped after an error).
func (s *Set) Spilled() (uint64, error) {
	if s == nil {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled, s.spillErr
}
