package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"eruca/internal/obs"
	"eruca/internal/telemetry"
)

// metrics is a dependency-free Prometheus-text exporter: fixed counters
// for the admission path, per-exit-class completion counters, cache
// hit/miss counters, a job-latency histogram, and the span-derived
// latency families fed by trace closure (zeros when tracing is off).
// Gauges (queue depth, in-flight, runner dedup counters) are sampled at
// scrape time by the server, not stored here.
type metrics struct {
	submitted        atomic.Int64
	rejectedFull     atomic.Int64
	rejectedDraining atomic.Int64
	rejectedInvalid  atomic.Int64
	rejectedReadOnly atomic.Int64
	blobsCorrupt     atomic.Int64
	blobsRepaired    atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	idemReplayed     atomic.Int64
	recovered        atomic.Int64
	migratedIn       atomic.Int64
	remoteCacheHits  atomic.Int64
	inflight         atomic.Int64
	searchPoints     atomic.Int64
	searchCacheHits  atomic.Int64
	searchFrontier   atomic.Int64 // gauge: latest reported frontier size

	mu        sync.Mutex
	completed map[string]int64 // exit class -> count
	hist      *SecondsHist

	// Span-derived latency histograms, fed by the tracer's Observe hook
	// on span closure — latency breakdown without trace inspection.
	queueWait *SecondsHist
	runLat    *SecondsHist
	ckptLat   *SecondsHist
}

func newMetrics() *metrics {
	return &metrics{
		completed: make(map[string]int64),
		hist:      NewSecondsHist(0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120),
		queueWait: NewSecondsHist(spanBounds()...),
		runLat:    NewSecondsHist(spanBounds()...),
		ckptLat:   NewSecondsHist(spanBounds()...),
	}
}

// jobDone records one completed job: its exit class and wall latency.
func (m *metrics) jobDone(class string, seconds float64) {
	m.mu.Lock()
	m.completed[class]++
	m.mu.Unlock()
	m.hist.Observe(seconds)
}

// observeSpan is the tracer Observe hook: span closure drives the
// queue-wait / run / checkpoint latency families.
func (m *metrics) observeSpan(sp obs.Span) {
	secs := sp.Duration().Seconds()
	switch sp.Kind {
	case obs.KindQueueWait:
		m.queueWait.Observe(secs)
	case obs.KindRun:
		m.runLat.Observe(secs)
	case obs.KindCheckpointSave:
		m.ckptLat.Observe(secs)
	}
}

// gauges are the point-in-time values the server samples at scrape.
type gauges struct {
	queueDepth  int
	inflight    int64
	cacheSize   int
	draining    int
	degraded    int
	simLaunched int64
	simJoined   int64
	runnerPools int
	spansTotal  uint64
}

// collect renders the service families into buf.
func (m *metrics) collect(buf *MetricsBuf, g gauges) {
	buf.Counter("eruca_jobs_submitted_total", "Jobs accepted into the queue.", m.submitted.Load())
	buf.Counter("eruca_jobs_rejected_full_total", "Jobs rejected with 429 because the queue was full.", m.rejectedFull.Load())
	buf.Counter("eruca_jobs_rejected_draining_total", "Jobs rejected with 503 during drain.", m.rejectedDraining.Load())
	buf.Counter("eruca_jobs_rejected_invalid_total", "Jobs rejected with 400 at validation.", m.rejectedInvalid.Load())
	buf.Counter("eruca_jobs_rejected_readonly_total", "Jobs rejected with 503 while the daemon is degraded read-only.", m.rejectedReadOnly.Load())
	buf.Counter("eruca_blobs_corrupt_total", "Checkpoint blobs that failed sha256 verification on read or scrub.", m.blobsCorrupt.Load())
	buf.Counter("eruca_blobs_repaired_total", "Corrupt checkpoint blobs re-fetched from a cluster replica by the scrubber.", m.blobsRepaired.Load())
	buf.Counter("eruca_result_cache_hits_total", "Jobs served from the content-addressed result cache.", m.cacheHits.Load())
	buf.Counter("eruca_result_cache_misses_total", "Jobs that had to execute.", m.cacheMisses.Load())
	buf.Counter("eruca_jobs_idem_replayed_total", "Submissions answered with an existing job via Idempotency-Key.", m.idemReplayed.Load())
	buf.Counter("eruca_jobs_recovered_total", "Jobs re-enqueued from the journal at boot.", m.recovered.Load())
	buf.Counter("eruca_jobs_migrated_in_total", "Jobs accepted past the admission bound after a peer's eviction.", m.migratedIn.Load())
	buf.Counter("eruca_result_cache_remote_hits_total", "Jobs served via the sharded cache's read-through to a peer.", m.remoteCacheHits.Load())
	buf.Counter("eruca_sim_runs_total", "Simulations actually executed by the shared runners.", g.simLaunched)
	buf.Counter("eruca_sim_dedup_total", "Simulation requests served by an existing singleflight flight.", g.simJoined)
	buf.Counter("eruca_search_points_total", "Design-point evaluations requested by search jobs.", m.searchPoints.Load())
	buf.Counter("eruca_search_cache_hits_total", "Search evaluations served without a new simulation (result cache, cluster shard, or search snapshot).", m.searchCacheHits.Load())
	buf.CounterU("eruca_spans_total", "Trace spans finished since boot (0 while tracing is disabled).", g.spansTotal)

	m.mu.Lock()
	classes := make([]string, 0, len(m.completed))
	for cl := range m.completed {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	for _, cl := range classes {
		buf.Series("eruca_jobs_completed_total",
			"Jobs finished, by exit class (same 3/4/5 taxonomy as the CLI exit codes).", "counter",
			fmt.Sprintf("eruca_jobs_completed_total{class=%q} %d", cl, m.completed[cl]))
	}
	m.mu.Unlock()

	m.hist.Collect(buf, "eruca_job_duration_seconds", "Wall latency of completed jobs.", "")
	m.queueWait.Collect(buf, "eruca_job_queue_wait_seconds", "Admission-to-worker-pickup latency, from queue_wait span closure.", "")
	m.runLat.Collect(buf, "eruca_job_run_seconds", "Execution latency, from run span closure.", "")
	m.ckptLat.Collect(buf, "eruca_job_checkpoint_seconds", "Checkpoint save latency, from checkpoint_save span closure.", "")

	buf.Gauge("eruca_queue_depth", "Jobs waiting in the priority queue.", int64(g.queueDepth))
	buf.Gauge("eruca_jobs_inflight", "Jobs currently executing.", g.inflight)
	buf.Gauge("eruca_result_cache_entries", "Resident result-cache entries.", int64(g.cacheSize))
	buf.Gauge("eruca_runner_pools", "Distinct exp.Runner parameter groups alive.", int64(g.runnerPools))
	buf.Gauge("eruca_search_frontier_size", "Pareto-frontier size last reported by a search job.", m.searchFrontier.Load())
	buf.Gauge("eruca_draining", "1 while the daemon is draining.", int64(g.draining))
	buf.Gauge("eruca_degraded", "1 once a journal write failed and the daemon went read-only.", int64(g.degraded))
}

// telemetryHelp documents the simulator-level counters on /metrics.
var telemetryHelp = map[string]string{
	"acts":              "DRAM ACT commands issued.",
	"pres":              "DRAM PRE commands issued.",
	"reads":             "DRAM column reads issued.",
	"writes":            "DRAM column writes issued.",
	"refreshes":         "DRAM REF commands issued.",
	"prealls":           "DRAM PREA (precharge-all) commands issued.",
	"ewlr_hits":         "ACTs that reused an already-driven MWL (EWLR hits).",
	"partial_pres":      "PREs that left the shared MWL driven (partial precharge).",
	"plane_conflicts":   "PREs forced by plane-latch conflicts (Fig. 13b).",
	"rap_redirects":     "ACTs whose plane ID was RAP-inverted to dodge a collision.",
	"ddb_saved_ck":      "Bus cycles of tCCD_L/tWTR_L recovered by the dual data bus.",
	"ff_cycles_skipped": "Bus cycles jumped by the event-driven run loop.",
	"trace_dropped":     "Trace events dropped beyond the capture cap.",
}

// collectTelemetry renders the simulator-level metrics: every counter
// (the DRAM totals of finished simulations, fast-forward skips, dropped
// trace events) summed across the given telemetry sets as
// eruca_sim_<name>_total, and every log2 histogram merged into a
// Prometheus histogram eruca_sim_<name> whose bucket bounds are the
// Hist power-of-two upper edges (only populated buckets are emitted to
// keep the exposition small).
func collectTelemetry(buf *MetricsBuf, sets []*telemetry.Set) {
	counters := map[string]uint64{}
	type hist struct {
		buckets [telemetry.HistBuckets]uint64
		sum     int64
		n       uint64
	}
	hists := map[string]*hist{}
	for _, s := range sets {
		s.C.Each(func(name string, v uint64) { counters[name] += v })
		s.C.Hists(func(name string, h *telemetry.Hist) {
			m := hists[name]
			if m == nil {
				m = &hist{}
				hists[name] = m
			}
			b := h.Buckets()
			for i, c := range b {
				m.buckets[i] += c
			}
			m.sum += h.Sum()
			m.n += h.N()
		})
	}
	for name, v := range counters {
		metric := "eruca_sim_" + name + "_total"
		help := telemetryHelp[name]
		if help == "" {
			help = "Simulator counter " + name + "."
		}
		buf.CounterU(metric, help, v)
	}
	for name, h := range hists {
		metric := "eruca_sim_" + name
		help := fmt.Sprintf("Simulator log2 histogram (%s), bus cycles.", name)
		var cum uint64
		for i, c := range h.buckets {
			cum += c
			if c == 0 {
				continue // sparse: only populated bucket edges
			}
			buf.Series(metric, help, "histogram",
				fmt.Sprintf("%s_bucket{le=\"%d\"} %d", metric, telemetry.BucketUpper(i), cum))
		}
		buf.Series(metric, help, "histogram", fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d", metric, h.n))
		buf.Series(metric, help, "histogram", fmt.Sprintf("%s_sum %d", metric, h.sum))
		buf.Series(metric, help, "histogram", fmt.Sprintf("%s_count %d", metric, h.n))
	}
}
