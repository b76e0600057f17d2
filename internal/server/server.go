package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eruca/internal/cli"
	"eruca/internal/clock"
	"eruca/internal/errfs"
	"eruca/internal/exp"
	"eruca/internal/obs"
	"eruca/internal/sim"
)

// ErrReadOnly is returned by submissions once the daemon has degraded
// to read-only: a journal write failed (disk full, device error), so it
// can no longer promise durability for new work. Existing jobs keep
// running and reads keep serving; the HTTP layer maps this to 503 with
// Retry-After.
var ErrReadOnly = errors.New("server: journal write failed; daemon is read-only")

// Config sizes the daemon.
type Config struct {
	// Workers is the job worker-pool width (default 4). Workers that
	// join an in-flight duplicate simulation block cheaply, so Workers
	// may exceed SimParallel without oversubscribing the CPU.
	Workers int
	// SimParallel bounds concurrent simulations inside each runner
	// group (default GOMAXPROCS).
	SimParallel int
	// QueueMax is the admission-control bound (default 64); beyond it
	// POST /v1/jobs returns 429 with Retry-After.
	QueueMax int
	// CacheMax bounds the in-memory result cache entries (default 256).
	CacheMax int
	// CachePath, when non-empty, persists the result cache across
	// restarts (loaded at New, flushed on drain).
	CachePath string
	// RetryAfter is the base backoff hint returned with 429/503; the
	// actual hint scales with queue pressure and carries jitter so a
	// thundering herd of rejected clients does not resynchronize
	// (default 2s).
	RetryAfter time.Duration
	// WALDir, when non-empty, enables crash-safe durability: an
	// append-only journal of job lifecycle records plus a checkpoint
	// blob store live under it. On New the journal is replayed —
	// terminal jobs come back with their results, unfinished jobs are
	// re-enqueued and their simulations resume from the last stored
	// checkpoint instead of cycle zero.
	WALDir string
	// CheckpointCycles is the simulation checkpoint cadence in bus
	// cycles when WALDir is set (default 50_000).
	CheckpointCycles int64
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: the profiling surface stays opt-in on shared daemons.
	Pprof bool
	// Log, when non-nil, receives structured daemon lifecycle records
	// (default: discard). Call sites attach job_id / trace_id / node
	// attributes so one grep reconstructs a request.
	Log *slog.Logger
	// Tracer, when non-nil, records a distributed span per lifecycle
	// stage of every job (admit, queue_wait, schedule, run, …) into a
	// bounded ring served at GET /v1/traces. Nil disables tracing at
	// zero cost: the span plumbing through the hot path is nil-receiver
	// no-ops, proven allocation-free.
	Tracer *obs.Tracer
	// SSEKeepalive is the cadence of ": keepalive" comment frames on
	// idle SSE streams so intermediaries (and the cluster proxy path)
	// don't drop quiet connections (default 15s).
	SSEKeepalive time.Duration
	// FS is the filesystem under the durability layer (default the real
	// OS). Chaos tests swap in errfs.Faulty to inject disk failures.
	FS errfs.FS
	// ScrubEvery, when positive and WALDir is set, runs a background
	// checkpoint-blob scrub at this cadence: every blob's sha256 is
	// verified, corrupt blobs are re-fetched from the cluster replica
	// (CkptFetch) or deleted.
	ScrubEvery time.Duration

	// NodeID, when non-empty, prefixes every job ID ("n2" makes
	// "n2-job-000001") so a cluster peer can route any job ID back to
	// the node that owns its record. Standalone daemons leave it empty
	// and keep the plain "job-%06d" IDs.
	NodeID string
	// CacheFetch, when non-nil, is the sharded result cache's
	// read-through: on a local cache miss the worker asks it (the
	// cluster layer queries the hash's ring owner) before paying for a
	// simulation. A fetched result is installed in the local cache too.
	CacheFetch func(hash string) (output string, ok bool)
	// CkptFetch, when non-nil, supplies checkpoint blobs the local
	// store does not have — the migration read path: a job re-enqueued
	// from a dead node resumes from the blob that node replicated to
	// the coordinator before dying.
	CkptFetch func(key string) []byte
	// CkptReplicate, when non-nil, observes every locally saved
	// checkpoint blob — the migration write path (the cluster layer
	// pushes it to the coordinator, asynchronously and best-effort).
	// parent is the saving span's context (invalid when tracing is
	// off), so the replication hop joins the job's trace.
	CkptReplicate func(key string, blob []byte, parent obs.SpanContext)
	// ClusterSnapshot, when non-nil, supplies the cluster-state records
	// (membership, placements) that drain-time WAL compaction must
	// preserve so a restarted coordinator still knows its cluster.
	ClusterSnapshot func() []ClusterRecord
	// OnAdmit, when non-nil, observes every accepted job right after it
	// is enqueued (submission, idempotent or not, and migration). The
	// cluster layer uses it to notify the coordinator of the placement
	// eagerly instead of waiting for the next heartbeat — a node can
	// die inside a heartbeat window, and placement knowledge is what
	// makes its jobs recoverable.
	OnAdmit func(j *Job)
	// EvalRemote, when non-nil, lets one search job fan its design-point
	// evaluations out across the cluster: called with each "eval"
	// JobSpec before evaluating locally, it may route the point to the
	// spec hash's ring owner and return that node's output.
	// handled=false means "evaluate here" — the point hashes to this
	// node, or the cluster is unreachable (transport failures must fall
	// back, never surface: the engine records returned errors as
	// deterministic outcomes of the point).
	EvalRemote func(ctx context.Context, spec JobSpec) (output string, handled bool, err error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.SimParallel <= 0 {
		c.SimParallel = runtime.GOMAXPROCS(0)
	}
	if c.QueueMax <= 0 {
		c.QueueMax = 64
	}
	if c.CacheMax <= 0 {
		c.CacheMax = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.CheckpointCycles <= 0 {
		c.CheckpointCycles = 50_000
	}
	if c.SSEKeepalive <= 0 {
		c.SSEKeepalive = 15 * time.Second
	}
	if c.Log == nil {
		c.Log = obs.Discard()
	}
	if c.FS == nil {
		c.FS = errfs.OS
	}
	return c
}

// Server is the simulation service: queue, workers, runners, caches.
// Create with New, serve its Handler, stop with Drain (graceful) or
// Close (hard).
type Server struct {
	cfg     Config
	metrics *metrics
	queue   *queue
	cache   *resultCache
	jobs    *registry

	baseCtx  context.Context // parent of every job context
	baseStop context.CancelFunc

	runnerMu sync.Mutex
	runners  map[string]*runnerGroup // groupKey -> group a job or evaluation is running on
	// runsLaunched and runsJoined total the runner counters of the
	// groups already released.
	runsLaunched, runsJoined int64

	// Durability (nil / empty when Config.WALDir is unset).
	wal   *wal
	ckpts *ckptStore
	// clusterRecs are the cluster-state records replayed from the
	// journal at boot, for the coordinator to reconstruct membership.
	clusterRecs []ClusterRecord

	idemMu sync.Mutex
	idem   map[string]string // Idempotency-Key -> job ID

	draining atomic.Bool
	// degraded flips (sticky) when a journal write fails: the daemon
	// stops admitting work it cannot make durable and serves 503 on
	// submissions until restarted on a healthy disk.
	degraded atomic.Bool
	wg       sync.WaitGroup
}

// New builds a Server, loads the persisted result cache, and — when
// Config.WALDir is set — replays the journal: terminal jobs come back
// with their results, unfinished jobs are re-enqueued (bypassing the
// admission bound: they were already acknowledged with a 202 before the
// crash), and idempotency keys are reinstalled so client retries land
// on the original jobs.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	prefix := ""
	if cfg.NodeID != "" {
		prefix = cfg.NodeID + "-"
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		queue:   newQueue(cfg.QueueMax),
		cache:   newResultCache(cfg.CacheMax),
		jobs:    newRegistry(prefix),
		runners: make(map[string]*runnerGroup),
		idem:    make(map[string]string),
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	// Span-derived latency histograms: queue_wait / run / checkpoint
	// closure feeds the Prometheus families without trace inspection.
	cfg.Tracer.Observe(s.metrics.observeSpan)
	if err := s.cache.Load(cfg.CachePath); err != nil {
		return nil, err
	}
	if n := s.cache.Len(); n > 0 {
		cfg.Log.Info("result cache loaded", "entries", n, "path", cfg.CachePath)
	}
	if cfg.WALDir != "" {
		if err := s.openDurability(cfg.WALDir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// tracer returns the configured tracer (nil when tracing is disabled —
// every obs call site tolerates that for free).
func (s *Server) tracer() *obs.Tracer { return s.cfg.Tracer }

// Tracer exposes the span ring (nil when tracing is disabled) for the
// trace endpoints and the cluster layer.
func (s *Server) Tracer() *obs.Tracer { return s.cfg.Tracer }

// Log exposes the structured logger for layers stacked on the server.
func (s *Server) Log() *slog.Logger { return s.cfg.Log }

// openDurability opens the journal and checkpoint store under dir and
// replays the journal into the registry and queue.
func (s *Server) openDurability(dir string) error {
	if err := s.cfg.FS.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: wal dir: %w", err)
	}
	ckpts, err := newCkptStore(s.cfg.FS, filepath.Join(dir, "checkpoints"))
	if err != nil {
		return fmt.Errorf("server: checkpoint store: %w", err)
	}
	ckpts.onCorrupt = func(key string) {
		s.metrics.blobsCorrupt.Add(1)
		s.cfg.Log.Error("checkpoint blob corrupt", "key", key)
	}
	w, recs, err := openWAL(s.cfg.FS, filepath.Join(dir, "journal.wal"))
	if err != nil {
		return fmt.Errorf("server: wal open: %w", err)
	}
	s.wal, s.ckpts = w, ckpts
	if s.cfg.ScrubEvery > 0 {
		// Plain goroutine, deliberately NOT on s.wg: Drain waits for the
		// workers via wg before canceling baseCtx, and a wg-joined scrub
		// ticker would deadlock that wait.
		go s.scrubLoop()
	}
	for _, rec := range recs {
		if rec.Type == "cluster" && rec.Cluster != nil {
			s.clusterRecs = append(s.clusterRecs, *rec.Cluster)
		}
	}
	jobs, _ := replay(recs)
	var terminal, requeued int
	for _, rj := range jobs {
		j := s.jobs.addRecovered(rj, s.baseCtx)
		j.onTerminal = s.journalFinish
		if rj.idem != "" {
			s.idem[rj.idem] = j.ID
		}
		if rj.state.Terminal() {
			terminal++
			continue
		}
		// A recovered job starts a fresh trace: the pre-crash spans died
		// with the old process's ring.
		admit := s.tracer().Start(obs.SpanContext{}, obs.KindAdmit, "recover")
		admit.SetJob(j.ID)
		j.trace = admit.Context()
		j.events.Append(fmt.Sprintf("recovered from journal as %s (hash %.12s)", j.ID, j.Hash))
		_ = s.enqueue(j, true) // the queue is open at boot
		admit.End()
		s.metrics.recovered.Add(1)
		requeued++
	}
	if len(jobs) > 0 || s.ckpts.Len() > 0 {
		s.cfg.Log.Info("wal replayed",
			"jobs", len(jobs), "terminal", terminal, "requeued", requeued,
			"checkpoint_blobs", s.ckpts.Len())
	}
	return nil
}

// journalFinish is the Job.onTerminal hook: it records the terminal
// transition in the journal. Jobs interrupted by a forced shutdown are
// deliberately NOT journaled as finished — withholding the record is
// what makes a restarted daemon re-run them.
func (s *Server) journalFinish(j *Job) {
	rec, ok := j.terminalRecord()
	if !ok {
		_ = s.journalAppend(walRecord{Type: "interrupted", Job: j.ID, State: string(j.State())})
		return
	}
	ws := s.tracer().Start(j.trace, obs.KindWALAppend, "wal finish")
	ws.SetJob(j.ID)
	if err := s.journalAppend(rec); err != nil {
		ws.SetError(err)
		s.cfg.Log.Error("wal finish record failed", "job_id", j.ID, "trace_id", j.trace.Trace, "err", err)
	}
	ws.End()
}

// journalAppend appends one record, flipping the daemon into degraded
// read-only mode on failure — a journal that cannot take writes cannot
// back the durability promise a 202 makes.
func (s *Server) journalAppend(rec walRecord) error {
	err := s.wal.append(rec)
	if err != nil {
		s.degrade(err)
	}
	return err
}

// degrade (idempotently) flips the daemon read-only.
func (s *Server) degrade(cause error) {
	if s.degraded.CompareAndSwap(false, true) {
		s.cfg.Log.Error("journal write failed; degrading to read-only", "err", cause)
	}
}

// Degraded reports whether the daemon has gone read-only after a
// journal write failure.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// Scrub verifies every checkpoint blob's checksum once, repairing
// corrupt blobs from the cluster replica tier (CkptFetch) when
// possible. Safe to call any time; the scrub loop and tests share it.
func (s *Server) Scrub() (scanned, corrupt, repaired int) {
	if s.ckpts == nil {
		return 0, 0, 0
	}
	scanned, corrupt, repaired = s.ckpts.Scrub(s.cfg.CkptFetch)
	s.metrics.blobsRepaired.Add(int64(repaired))
	if corrupt > 0 {
		s.cfg.Log.Warn("blob scrub found corruption",
			"scanned", scanned, "corrupt", corrupt, "repaired", repaired)
	}
	return scanned, corrupt, repaired
}

// scrubLoop runs Scrub at the configured cadence until the server
// stops.
func (s *Server) scrubLoop() {
	t := time.NewTicker(s.cfg.ScrubEvery)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.Scrub()
		}
	}
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				job, ok := s.queue.Pop()
				if !ok {
					return
				}
				s.runJob(job)
			}
		}()
	}
	s.cfg.Log.Info("serving",
		"workers", s.cfg.Workers, "sim_parallel", s.cfg.SimParallel, "queue_max", s.cfg.QueueMax)
}

// SubmitOpts are Submit's optional parameters.
type SubmitOpts struct {
	// IdemKey is the client's Idempotency-Key ("" for none). A
	// resubmission carrying a key the daemon has already accepted
	// returns the original job (replayed=true) instead of enqueueing a
	// duplicate — across restarts too, when the WAL is enabled, so a
	// client that lost its 202 to a crash can retry the POST safely.
	IdemKey string
	// Parent is the trace position of the client (or of a forwarding
	// peer or migrating coordinator), so the admit span and every
	// lifecycle span of the job join the caller's trace. An invalid
	// parent starts a fresh trace when tracing is on.
	Parent obs.SpanContext
	// From, when non-empty, names the evicted cluster member this job is
	// re-homed from. Such a job bypasses the admission bound the way
	// boot-time recovery does: the cluster already acknowledged it with
	// a 202 on the dead node, and lease-expiry re-enqueue must never
	// shed it because the survivor's queue is momentarily full.
	From string
}

// Submit validates, journals and enqueues a spec — the one admission
// path for client submissions and cluster migrations. The error is one
// of ErrQueueFull, ErrQueueClosed, ErrReadOnly, or a validation error.
func (s *Server) Submit(spec JobSpec, o SubmitOpts) (job *Job, replayed bool, err error) {
	name := "admit"
	if o.From != "" {
		name = "admit migrated"
	}
	admit := s.tracer().Start(o.Parent, obs.KindAdmit, name)
	if o.From != "" {
		admit.SetAttr("from", o.From)
	}
	defer func() {
		admit.SetError(err)
		admit.End()
	}()
	switch {
	case s.draining.Load():
		s.metrics.rejectedDraining.Add(1)
		return nil, false, ErrQueueClosed
	case s.degraded.Load():
		s.metrics.rejectedReadOnly.Add(1)
		return nil, false, ErrReadOnly
	}
	if err := spec.Validate(); err != nil {
		s.metrics.rejectedInvalid.Add(1)
		return nil, false, err
	}
	job, replayed = s.claim(spec, o.IdemKey, admit.Context())
	admit.SetJob(job.ID)
	if replayed {
		s.metrics.idemReplayed.Add(1)
		admit.SetAttr("replayed", "true")
		return job, true, nil
	}
	if err := s.journalSubmit(job); err != nil {
		s.metrics.rejectedReadOnly.Add(1)
		s.reject(job, err)
		return nil, false, err
	}
	if err := s.enqueue(job, o.From != ""); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.metrics.rejectedFull.Add(1)
		} else {
			s.metrics.rejectedDraining.Add(1)
		}
		s.reject(job, err)
		return nil, false, err
	}
	s.metrics.submitted.Add(1)
	if o.From != "" {
		s.metrics.migratedIn.Add(1)
		job.events.Append(fmt.Sprintf("re-enqueued as %s after eviction of %s (hash %.12s)", job.ID, o.From, job.Hash))
	} else {
		job.events.Append(fmt.Sprintf("queued as %s (hash %.12s)", job.ID, job.Hash))
	}
	if s.cfg.OnAdmit != nil {
		s.cfg.OnAdmit(job)
	}
	return job, false, nil
}

// claim registers a new job for spec, or returns the job already holding
// key (replayed). A non-empty key is claimed in the same critical
// section that looks it up, so concurrent submissions of one key yield
// one job; the WAL fsync happens after the lock is released.
func (s *Server) claim(spec JobSpec, key string, trace obs.SpanContext) (job *Job, replayed bool) {
	if key == "" {
		return s.jobs.add(spec, s.baseCtx, "", trace), false
	}
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	if j := s.jobs.get(s.idem[key]); j != nil {
		return j, true
	}
	job = s.jobs.add(spec, s.baseCtx, key, trace)
	s.idem[key] = job.ID
	return job, false
}

// reject fails a claimed job that could not be journaled or queued and
// releases its idempotency key, so a retry is admitted afresh — after
// a restart too, since the job's terminal record is a "reject".
func (s *Server) reject(job *Job, err error) {
	job.mu.Lock()
	job.rejected = true
	job.mu.Unlock()
	if job.idemKey != "" {
		s.idemMu.Lock()
		if s.idem[job.idemKey] == job.ID {
			delete(s.idem, job.idemKey)
		}
		s.idemMu.Unlock()
	}
	job.finish(StateFailed, "", err)
}

// journalSubmit makes a new job durable (a no-op without a WAL). A
// failed append returns an error wrapping ErrReadOnly.
func (s *Server) journalSubmit(job *Job) error {
	if s.wal == nil {
		return nil
	}
	job.onTerminal = s.journalFinish
	sp := job.Spec
	ws := s.tracer().Start(job.trace, obs.KindWALAppend, "wal submit")
	ws.SetJob(job.ID)
	defer ws.End()
	err := s.journalAppend(walRecord{Type: "submit", Job: job.ID, Idem: job.idemKey, Spec: &sp})
	if err == nil {
		return nil
	}
	ws.SetError(err)
	s.cfg.Log.Error("wal submit record failed", "job_id", job.ID, "trace_id", job.trace.Trace, "err", err)
	return fmt.Errorf("%w (cause: %v)", ErrReadOnly, err)
}

// enqueue pushes an admitted or recovered job and opens its queue_wait
// span; bypass lifts the admission bound.
func (s *Server) enqueue(job *Job, bypass bool) error {
	if err := s.queue.Push(job, bypass); err != nil {
		return err
	}
	qs := s.tracer().Start(job.trace, obs.KindQueueWait, "queue wait")
	qs.SetJob(job.ID)
	job.setQueueSpan(qs)
	return nil
}

// Job returns a job by ID, or nil.
func (s *Server) Job(id string) *Job { return s.jobs.get(id) }

// NodeID reports the configured cluster node ID ("" standalone).
func (s *Server) NodeID() string { return s.cfg.NodeID }

// CachedResult returns the content-addressed cached output for hash —
// the cluster's result-shard read endpoint.
func (s *Server) CachedResult(hash string) (string, bool) {
	e, ok := s.cache.Get(hash)
	return e.Output, ok
}

// CkptSave stores a replicated checkpoint blob; no-op (with an error)
// unless the daemon runs with a WAL directory.
func (s *Server) CkptSave(key string, blob []byte) error {
	if s.ckpts == nil {
		return fmt.Errorf("server: no checkpoint store (run with -wal)")
	}
	return s.ckpts.Save(key, blob)
}

// CkptLoad returns the locally stored checkpoint blob for key, or nil.
func (s *Server) CkptLoad(key string) []byte {
	if s.ckpts == nil {
		return nil
	}
	return s.ckpts.Load(key)
}

// JournalCluster appends one cluster-state record to the journal; a
// no-op without a WAL (an ephemeral coordinator just cannot survive a
// restart).
func (s *Server) JournalCluster(rec ClusterRecord) error {
	if s.wal == nil {
		return nil
	}
	return s.journalAppend(walRecord{Type: "cluster", Cluster: &rec})
}

// ClusterReplay returns the cluster-state records replayed from the
// journal at boot, in journal order — the coordinator's restart source.
func (s *Server) ClusterReplay() []ClusterRecord {
	return append([]ClusterRecord(nil), s.clusterRecs...)
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []*Job { return s.jobs.list() }

// Cancel cancels a job by ID; false when unknown or already terminal.
func (s *Server) Cancel(id string) bool {
	j := s.jobs.get(id)
	return j != nil && j.Cancel()
}

// runnerGroup is the shared singleflight runner of one parameter group
// and the number of jobs and evaluations running on it.
type runnerGroup struct {
	r    *exp.Runner
	refs int
}

// acquireRunner returns the shared singleflight runner of the spec's
// parameter group, building it on demand. Specs with identical scaling
// and robustness knobs that run at the same time land on the same
// runner, so their simulations dedup even across different figures and
// job kinds. The caller must call release when it stops using the
// runner: the last release drops the group and the Results it memoized,
// so an idle daemon holds none.
func (s *Server) acquireRunner(spec JobSpec) (r *exp.Runner, release func(), err error) {
	key := spec.groupKey()
	s.runnerMu.Lock()
	defer s.runnerMu.Unlock()
	g, ok := s.runners[key]
	if !ok {
		p, err := spec.params()
		if err != nil {
			return nil, nil, err
		}
		p.Parallel = s.cfg.SimParallel
		g = &runnerGroup{r: exp.NewRunner(p)}
		s.runners[key] = g
	}
	g.refs++
	return g.r, func() {
		s.runnerMu.Lock()
		defer s.runnerMu.Unlock()
		if g.refs--; g.refs == 0 {
			l, j := g.r.Counters()
			s.runsLaunched += l
			s.runsJoined += j
			delete(s.runners, key)
		}
	}, nil
}

// runnerCounters sums the dedup evidence of every runner group, released
// or running, and counts the running groups.
func (s *Server) runnerCounters() (launched, joined int64, pools int) {
	s.runnerMu.Lock()
	defer s.runnerMu.Unlock()
	launched, joined = s.runsLaunched, s.runsJoined
	for _, g := range s.runners {
		l, j := g.r.Counters()
		launched += l
		joined += j
	}
	return launched, joined, len(s.runners)
}

// checkpointPolicy builds the per-job checkpoint plumbing: periodic
// snapshots land in the blob store (keyed by simulation, so recovered
// jobs and deduplicated twins share them) and leave an advisory
// checkpoint record in the journal; on resume the runner loads the
// latest blob and continues from its bus cycle instead of cycle zero.
func (s *Server) checkpointPolicy(job *Job, parent obs.SpanContext) *exp.CheckpointPolicy {
	return &exp.CheckpointPolicy{
		Every: clock.Cycle(s.cfg.CheckpointCycles),
		Save: func(key string, cp sim.Checkpoint) {
			cs := s.tracer().Start(parent, obs.KindCheckpointSave, "checkpoint save")
			cs.SetJob(job.ID)
			cs.SetAttr("key", key)
			if err := s.ckpts.Save(key, cp.Blob); err != nil {
				cs.SetError(err)
				cs.End()
				s.cfg.Log.Error("checkpoint save failed", "job_id", job.ID, "trace_id", job.trace.Trace, "key", key, "err", err)
				return
			}
			_ = s.journalAppend(walRecord{Type: "checkpoint", Job: job.ID, Key: key, Bus: int64(cp.Bus)})
			if s.cfg.CkptReplicate != nil {
				// Cluster replication: the blob also lands on the
				// coordinator so a survivor can resume this simulation
				// if this node dies with it in flight.
				s.cfg.CkptReplicate(key, cp.Blob, cs.Context())
			}
			cs.End()
		},
		Load: func(key string) []byte {
			if b := s.ckpts.Load(key); b != nil {
				return b
			}
			if s.cfg.CkptFetch == nil {
				return nil
			}
			// Migration read path: a job re-homed from an evicted node
			// has no local blob; fetch the one its old owner replicated.
			b := s.cfg.CkptFetch(key)
			if b != nil {
				job.events.Append(fmt.Sprintf("checkpoint blob for %s fetched from cluster", key))
				if err := s.ckpts.Save(key, b); err != nil {
					s.cfg.Log.Error("checkpoint adopt failed", "job_id", job.ID, "key", key, "err", err)
				}
			}
			return b
		},
	}
}

// runJob executes one popped job to its terminal state.
func (s *Server) runJob(job *Job) {
	qs := job.takeQueueSpan()
	if err := job.ctx.Err(); err != nil {
		// Canceled (or deadline-expired) while queued.
		qs.SetError(err)
		qs.End()
		job.finish(StateCanceled, "", err)
		s.metrics.jobDone("canceled", time.Since(job.created).Seconds())
		return
	}
	if !job.start() {
		qs.End()
		return // lost a race with Cancel; finish already recorded
	}
	qs.End()
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	start := time.Now()

	out, err := s.produce(job)
	switch {
	case err == nil:
		job.finish(StateDone, out, nil)
		s.metrics.jobDone("ok", time.Since(start).Seconds())
	case isCanceled(err) || job.ctx.Err() != nil:
		job.finish(StateCanceled, out, err)
		s.metrics.jobDone("canceled", time.Since(start).Seconds())
	default:
		job.finish(StateFailed, out, err)
		class, _ := classify(err)
		s.metrics.jobDone(class, time.Since(start).Seconds())
	}
	s.jobs.retire(job)
}

// produce computes a started job's output, cheapest source first: the
// local result cache, the cluster's cache shard, then a run, whose
// output it caches. A job other than a search (whose evaluations hold
// their own groups, see evalPoint) holds its runner group from before
// the cache lookup until the output is cached, so a concurrent
// duplicate either runs on the same group (and joins the simulation)
// or finds the output in the cache; it never simulates again in
// between.
func (s *Server) produce(job *Job) (string, error) {
	// The schedule span covers the dispatch decision: cache probes and
	// runner selection, between worker pickup and execution.
	sched := s.tracer().Start(job.trace, obs.KindSchedule, "schedule")
	sched.SetJob(job.ID)
	kind := job.Spec.normalized().Kind
	var runner *exp.Runner
	if kind != "search" {
		r, release, err := s.acquireRunner(job.Spec)
		if err != nil {
			sched.SetError(err)
			sched.End()
			return "", err
		}
		defer release()
		runner = r
	}

	// Content-addressed fast path: an identical completed spec is
	// served from the cache without running anything.
	cl := s.tracer().Start(sched.Context(), obs.KindCacheLookup, "cache lookup")
	cl.SetJob(job.ID)
	if e, ok := s.cache.Get(job.Hash); ok {
		s.metrics.cacheHits.Add(1)
		cl.SetAttr("hit", "local")
		cl.End()
		sched.End()
		job.mu.Lock()
		job.cacheHit = true
		job.mu.Unlock()
		job.events.Append("result cache hit")
		return e.Output, nil
	}
	s.metrics.cacheMisses.Add(1)

	// Sharded-cache read-through: before simulating, ask the hash's
	// ring owner (the cluster layer) whether it already has the result
	// — e.g. after a ring rebalance moved this hash onto us.
	if s.cfg.CacheFetch != nil {
		if out, ok := s.cfg.CacheFetch(job.Hash); ok {
			cl.SetAttr("hit", "cluster")
			cl.End()
			sched.End()
			s.cache.Put(cacheEntry{Hash: job.Hash, Kind: kind, Output: out})
			s.metrics.remoteCacheHits.Add(1)
			job.mu.Lock()
			job.cacheHit = true
			job.mu.Unlock()
			job.events.Append("result fetched from cluster cache shard")
			return out, nil
		}
	}
	cl.SetAttr("hit", "miss")
	cl.End()

	if s.wal != nil {
		ws := s.tracer().Start(sched.Context(), obs.KindWALAppend, "wal start")
		ws.SetJob(job.ID)
		_ = s.journalAppend(walRecord{Type: "start", Job: job.ID})
		ws.End()
	}
	sched.End()
	var out string
	var err error
	var run *obs.ActiveSpan
	if kind == "search" {
		// Search jobs drive the autotuner engine, which fans out into
		// per-point "eval" executions against the server's own caches and
		// (via Config.EvalRemote) the cluster — see search.go.
		run = s.tracer().Start(job.trace, obs.KindRun, "run search")
		run.SetJob(job.ID)
		// The run span's context rides job.ctx so the eval fan-out hop
		// spans (cluster layer) parent under this run.
		out, err = s.runSearch(obs.ContextWith(job.ctx, run.Context()), job)
	} else {
		run = s.tracer().Start(job.trace, obs.KindRun, "run")
		run.SetJob(job.ID)
		ctx := obs.ContextWith(job.ctx, run.Context())
		view := runner.WithContext(ctx).WithLog(job.events.Append).WithTelemetry(job.tel)
		if s.ckpts != nil {
			view = view.WithCheckpoint(s.checkpointPolicy(job, run.Context()))
		}
		out, err = execute(ctx, view, job.Spec)
	}
	run.SetError(err)
	run.End()
	if err == nil {
		s.cache.Put(cacheEntry{Hash: job.Hash, Kind: kind, Output: out})
	}
	return out, err
}

// isCanceled reports whether err stems from context cancellation.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// classify maps an error to its exit class and the CLI exit code of the
// same taxonomy, so HTTP clients and shell scripts agree on what went
// wrong.
func classify(err error) (class string, code int) {
	if err == nil {
		return "ok", cli.ExitOK
	}
	if isCanceled(err) {
		return "canceled", cli.ExitError
	}
	switch code := cli.ExitCode(err); code {
	case cli.ExitProtocol:
		return "protocol", code
	case cli.ExitDeadlock:
		return "deadlock", code
	case cli.ExitOOM:
		return "oom", code
	default:
		return "error", code
	}
}

// Draining reports whether the daemon has stopped admitting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain is the graceful shutdown: stop admitting (new submissions get
// 503), let the workers finish both queued and in-flight jobs, then
// flush the result cache to disk. If ctx expires first, every remaining
// job is canceled (the context plumbing reaches into the simulation
// loops, so this is prompt) and Drain waits for the workers to notice.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.cfg.Log.Info("draining: admission closed",
		"queued", s.queue.Len(), "inflight", s.metrics.inflight.Load())
	s.queue.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		// Forced shutdown: mark every unfinished job interrupted BEFORE
		// canceling its context — the interrupted flag withholds the
		// terminal record from the journal, so a restarted daemon re-runs
		// these jobs (resuming from their last checkpoint) instead of
		// reporting them canceled.
		interrupted := 0
		for _, j := range s.Jobs() {
			if j.markInterrupted() {
				interrupted++
			}
		}
		s.cfg.Log.Warn("drain deadline hit; canceling remaining jobs (journaled as interrupted)",
			"interrupted", interrupted)
		s.baseStop() // cancels every job context
		<-done
		drainErr = ctx.Err()
	}
	s.baseStop()
	if err := s.cache.Save(s.cfg.CachePath); err != nil {
		s.cfg.Log.Error("cache flush failed", "err", err)
		if drainErr == nil {
			drainErr = err
		}
	} else if s.cfg.CachePath != "" {
		s.cfg.Log.Info("result cache flushed", "entries", s.cache.Len(), "path", s.cfg.CachePath)
	}
	if s.wal != nil {
		// Rewrite the journal down to what still matters so it does not
		// grow without bound across restarts. Interrupted jobs keep only
		// their submit record: they must re-run on the next boot.
		path := filepath.Join(s.cfg.WALDir, "journal.wal")
		var crecs []ClusterRecord
		if s.cfg.ClusterSnapshot != nil {
			crecs = s.cfg.ClusterSnapshot()
		}
		if err := compactWAL(s.cfg.FS, path, s.Jobs(), crecs); err != nil {
			s.cfg.Log.Error("wal compaction failed", "err", err)
			if drainErr == nil {
				drainErr = err
			}
		}
		if err := s.wal.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	return drainErr
}

// Close is the hard stop: cancel everything, then drain bookkeeping.
func (s *Server) Close() error {
	s.baseStop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Drain(ctx)
}
