package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counters holds what the telemetry layer observes live, plus the
// command and mechanism totals handed to it. The live part is the
// fast-forward skip count, the dropped-event count and four histograms,
// all lock-free and updated on the simulator hot path regardless of
// event sampling. The totals arrive through Add once per finished
// simulation (sim hands over its measured dram.Stats), so they always
// equal the Result of the runs the Set served.
type Counters struct {
	FFCyclesSkipped atomic.Uint64 // bus cycles jumped by the event-driven run loop
	TraceDropped    atomic.Uint64 // events lost to a full capture buffer (no/failed spill)

	// Histograms (fixed log2 buckets, lock-free).
	ReadLatency Hist // read arrival→data, bus cycles
	QueueAge    Hist // read arrival→its column command, bus cycles
	RowOpen     Hist // row open lifetime ACT→PRE, bus cycles
	InterACT    Hist // per-rank gap between consecutive ACTs, bus cycles

	mu     sync.Mutex
	totals []total // in first-Add order
}

type total struct {
	name string
	v    uint64
}

// Add accumulates v into the named total. Safe for concurrent use.
func (c *Counters) Add(name string, v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.totals {
		if c.totals[i].name == name {
			c.totals[i].v += v
			return
		}
	}
	c.totals = append(c.totals, total{name, v})
}

// Each calls fn for every scalar counter with its canonical snake_case
// name (the Prometheus metric suffix): the totals handed to Add in
// first-Add order, then ff_cycles_skipped and trace_dropped.
func (c *Counters) Each(fn func(name string, v uint64)) {
	c.mu.Lock()
	totals := append([]total(nil), c.totals...)
	c.mu.Unlock()
	for _, t := range totals {
		fn(t.name, t.v)
	}
	fn("ff_cycles_skipped", c.FFCyclesSkipped.Load())
	fn("trace_dropped", c.TraceDropped.Load())
}

// Hists calls fn for every histogram with its canonical name.
func (c *Counters) Hists(fn func(name string, h *Hist)) {
	fn("read_latency_ck", &c.ReadLatency)
	fn("queue_age_ck", &c.QueueAge)
	fn("row_open_ck", &c.RowOpen)
	fn("inter_act_ck", &c.InterACT)
}

// HistBuckets is the bucket count of Hist: bucket i counts values whose
// bit length is i, i.e. bucket 0 holds v==0 and bucket i≥1 holds
// v ∈ [2^(i-1), 2^i).
const HistBuckets = 65

// Hist is a lock-free fixed-bucket log2 histogram of non-negative int64
// observations. Zero value ready.
type Hist struct {
	buckets [HistBuckets]atomic.Uint64
	sum     atomic.Int64
	n       atomic.Uint64
}

// Observe records one value; negative values clamp to 0.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// N reports the observation count.
func (h *Hist) N() uint64 { return h.n.Load() }

// Sum reports the sum of observations.
func (h *Hist) Sum() int64 { return h.sum.Load() }

// Mean reports the arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Buckets returns a snapshot of the non-cumulative bucket counts.
func (h *Hist) Buckets() [HistBuckets]uint64 {
	var out [HistBuckets]uint64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BucketUpper reports the exclusive upper bound of bucket i (the value
// such that every observation in the bucket is < BucketUpper(i)).
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 1
	}
	if i >= 64 {
		return 1<<63 + (1<<63 - 1) // effectively +Inf for int64 inputs
	}
	return 1 << uint(i)
}

// Quantile reports an upper bound on the q-quantile (0≤q≤1): the upper
// edge of the bucket containing the nearest-rank sample. Error is at
// most 2× (one log2 bucket).
func (h *Hist) Quantile(q float64) uint64 {
	b := h.Buckets()
	var total uint64
	for _, c := range b {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range b {
		cum += c
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(HistBuckets - 1)
}

// Snapshot is a point-in-time JSON-friendly copy of every counter and
// histogram, used by the erucad live endpoint and /metrics.
type Snapshot struct {
	Counters map[string]uint64        `json:"counters"`
	Hists    map[string]HistSnapshot  `json:"histograms"`
	Runs     []string                 `json:"runs,omitempty"`
	Recent   []map[string]interface{} `json:"recent,omitempty"`
}

// HistSnapshot is the exported form of a Hist.
type HistSnapshot struct {
	N       uint64   `json:"n"`
	Sum     int64    `json:"sum"`
	Mean    float64  `json:"mean"`
	P50     uint64   `json:"p50_le"`
	P99     uint64   `json:"p99_le"`
	Buckets []uint64 `json:"buckets,omitempty"` // sparse: trailing zeros trimmed
}

// Snap captures the exported form of h.
func (h *Hist) Snap() HistSnapshot {
	b := h.Buckets()
	last := -1
	for i, c := range b {
		if c != 0 {
			last = i
		}
	}
	var bk []uint64
	if last >= 0 {
		bk = append(bk, b[:last+1]...)
	}
	return HistSnapshot{
		N: h.N(), Sum: h.Sum(), Mean: h.Mean(),
		P50: h.Quantile(0.5), P99: h.Quantile(0.99),
		Buckets: bk,
	}
}

// Snapshot builds a full JSON-friendly snapshot of the Set, including up
// to recentN most-recent trace events across all rings.
func (s *Set) Snapshot(recentN int) Snapshot {
	snap := Snapshot{Counters: map[string]uint64{}, Hists: map[string]HistSnapshot{}}
	if s == nil {
		return snap
	}
	s.C.Each(func(name string, v uint64) { snap.Counters[name] = v })
	s.C.Hists(func(name string, h *Hist) { snap.Hists[name] = h.Snap() })
	snap.Runs = s.Runs()
	if recentN > 0 {
		for _, e := range s.Recent(-1, -1, recentN) {
			snap.Recent = append(snap.Recent, map[string]interface{}{
				"at": e.At, "kind": e.Kind.String(), "flags": e.Flag.String(),
				"chan": e.Chan, "rank": e.Rank, "group": e.Grp, "bank": e.Bank,
				"sub": e.Sub, "slot": e.Slot, "row": e.Row, "arg": e.Arg, "run": e.Run,
			})
		}
	}
	return snap
}
