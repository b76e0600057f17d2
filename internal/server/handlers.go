package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"eruca/internal/obs"
	"eruca/internal/telemetry"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs                submit a JobSpec          -> 202 job view
//	GET    /v1/jobs                list jobs                 -> 200 [views]
//	GET    /v1/jobs/{id}           status + result           -> 200 view
//	DELETE /v1/jobs/{id}           cancel                    -> 202 view
//	GET    /v1/jobs/{id}/events    live progress (SSE)
//	GET    /v1/jobs/{id}/telemetry live counters/trace snapshot (JSON; ?sse=1 streams deltas)
//	GET    /healthz                liveness + drain state
//	GET    /metrics                Prometheus text (service + simulator metrics)
//	GET    /debug/pprof/           Go profiling (only with Config.Pprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the typed error body shared with job records.
func writeError(w http.ResponseWriter, status int, err error) {
	class, code := classify(err)
	writeJSON(w, status, map[string]any{
		"error": errorBody{Message: err.Error(), Class: class, ExitCode: code},
	})
}

// retryAfterHint computes the backoff hint (whole seconds, minimum 1)
// returned with 429/503: the base scales with queue pressure — a full
// queue takes longer to drain than a briefly contended one — and each
// response carries up to ±25% jitter so a thundering herd of rejected
// clients spreads out instead of resynchronizing on the same retry
// instant.
func (s *Server) retryAfterHint() int {
	base := s.cfg.RetryAfter.Seconds()
	if s.cfg.QueueMax > 0 {
		pressure := float64(s.queue.Len()) / float64(s.cfg.QueueMax)
		base *= 1 + pressure // full queue => double the base hint
	}
	jittered := base * (0.75 + 0.5*rand.Float64())
	return max(int(jittered+0.5), 1)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.metrics.rejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	job, replayed, err := s.Submit(spec, SubmitOpts{IdemKey: r.Header.Get("Idempotency-Key"), Parent: obs.Extract(r.Header)})
	switch {
	case replayed:
		// The key was already accepted: return the original job instead
		// of enqueueing a duplicate. 200 (not 202) signals the replay.
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusOK, job.view(false))
	case err == nil:
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job.view(false))
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrQueueClosed):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrReadOnly):
		// Degraded read-only mode: the journal stopped taking writes, so
		// the daemon cannot make this submission durable. Existing jobs
		// and reads still serve; the client should retry elsewhere.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]view, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.view(false))
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if !j.Cancel() {
		// Already terminal: report the final state, idempotently.
		writeJSON(w, http.StatusConflict, j.view(false))
		return
	}
	writeJSON(w, http.StatusAccepted, j.view(false))
}

// handleEvents streams the job's progress log as Server-Sent Events:
// the replay buffer first, then live lines, then one terminal
// "event: done" frame carrying the final state. Every progress frame
// carries an `id:` field (the line's stable sequence number); a client
// that reconnects with Last-Event-ID receives exactly the lines it
// missed — a gapless continuation instead of a full replay. A client
// disconnect just unsubscribes — it never cancels the job (DELETE does
// that).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	after := -1
	if v, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil && v >= 0 {
		after = v
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string, id int, data string) {
		if event != "" {
			fmt.Fprintf(w, "event: %s\n", event)
		}
		if id >= 0 {
			fmt.Fprintf(w, "id: %d\n", id)
		}
		for _, line := range strings.Split(data, "\n") {
			fmt.Fprintf(w, "data: %s\n", line)
		}
		fmt.Fprint(w, "\n")
		fl.Flush()
	}

	// Periodic comment frames keep idle streams alive through
	// intermediaries (and the cluster's proxy path); SSE clients ignore
	// comment lines by spec.
	keepalive := time.NewTicker(s.cfg.SSEKeepalive)
	defer keepalive.Stop()

	history, live, unsub := j.events.SubscribeFrom(after)
	defer unsub()
	for _, ll := range history {
		send("", ll.N, ll.Text)
	}
	for {
		select {
		case ll, ok := <-live:
			if !ok {
				// Log closed: the job is terminal (or closing); emit the
				// final state and end the stream.
				send("done", -1, string(j.State()))
				return
			}
			send("", ll.N, ll.Text)
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-j.Done():
			// Drain whatever is still buffered, then finish.
			for {
				ll, ok := <-live
				if !ok {
					send("done", -1, string(j.State()))
					return
				}
				send("", ll.N, ll.Text)
			}
		}
	}
}

// handleTelemetry serves the job-scoped simulator telemetry: mechanism
// counters, log2 latency histograms, and the most-recent traced events.
// The default is one JSON snapshot (works mid-run: the counters are
// lock-free and the rings copy under their own mutex); with ?sse=1 it
// streams a snapshot every ?interval_ms (default 500, floor 50) until
// the job reaches a terminal state, then sends one final snapshot in an
// "event: done" frame. ?recent=N bounds the embedded event tail
// (default 32, max 1024).
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	recent := 32
	if v, err := strconv.Atoi(r.URL.Query().Get("recent")); err == nil && v >= 0 {
		recent = min(v, 1024)
	}
	if r.URL.Query().Get("sse") == "" {
		writeJSON(w, http.StatusOK, j.Telemetry().Snapshot(recent))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	interval := 500 * time.Millisecond
	if v, err := strconv.Atoi(r.URL.Query().Get("interval_ms")); err == nil && v >= 50 {
		interval = time.Duration(v) * time.Millisecond
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	send := func(event string) {
		if event != "" {
			fmt.Fprintf(w, "event: %s\n", event)
		}
		b, _ := json.Marshal(j.Telemetry().Snapshot(recent))
		fmt.Fprintf(w, "data: %s\n\n", b)
		fl.Flush()
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	keepalive := time.NewTicker(s.cfg.SSEKeepalive)
	defer keepalive.Stop()
	send("")
	for {
		select {
		case <-tick.C:
			send("")
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case <-j.Done():
			send("done")
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.Degraded() {
		// Still 200: the daemon is alive and serving reads; "degraded"
		// tells operators submissions are being bounced with 503.
		state = "degraded"
	}
	if s.Draining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":      state,
		"degraded":    s.Degraded(),
		"queue_depth": s.queue.Len(),
		"inflight":    s.metrics.inflight.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	buf := NewMetricsBuf()
	s.CollectMetrics(buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	buf.Write(w)
}

// CollectMetrics renders every service + simulator family into buf.
// The cluster layer calls this too, adding its own families to the same
// buffer, so the merged scrape still comes out in one sorted pass.
func (s *Server) CollectMetrics(buf *MetricsBuf) {
	launched, joined, pools := s.runnerCounters()
	g := gauges{
		queueDepth:  s.queue.Len(),
		inflight:    s.metrics.inflight.Load(),
		cacheSize:   s.cache.Len(),
		simLaunched: launched,
		simJoined:   joined,
		runnerPools: pools,
		spansTotal:  s.tracer().Total(),
	}
	if s.Draining() {
		g.draining = 1
	}
	if s.Degraded() {
		g.degraded = 1
	}
	s.metrics.collect(buf, g)
	// Simulator-level telemetry, aggregated across every job's set:
	// eruca_sim_* mechanism counters and log2 latency histograms.
	collectTelemetry(buf, s.telemetrySets())
}

// telemetrySets snapshots every job's telemetry set for /metrics.
func (s *Server) telemetrySets() []*telemetry.Set {
	jobs := s.Jobs()
	sets := make([]*telemetry.Set, 0, len(jobs))
	for _, j := range jobs {
		sets = append(sets, j.Telemetry())
	}
	return sets
}
