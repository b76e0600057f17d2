package server

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"eruca/internal/obs"
	"eruca/internal/telemetry"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one submitted spec moving through the queue. All fields behind
// mu; Done closes when the job reaches a terminal state.
type Job struct {
	ID   string
	Hash string
	Spec JobSpec

	ctx    context.Context
	cancel context.CancelFunc
	events *eventLog
	tel    *telemetry.Set
	done   chan struct{}

	// trace is the job's position in its distributed trace (the admit
	// span's context; zero when tracing is disabled). Set once at admit,
	// before the job is visible to workers.
	trace obs.SpanContext

	// idemKey is the client's Idempotency-Key (empty when none); a
	// resubmission with the same key returns this job instead of a new
	// one, across restarts when the WAL is enabled.
	idemKey string
	// onTerminal, when set, observes the terminal transition (the WAL
	// journals it). Called outside mu, before done closes.
	onTerminal func(*Job)

	mu        sync.Mutex
	queueSpan *obs.ActiveSpan // open queue_wait span, handed off to the worker
	state     State
	output    string
	errMsg    string
	errClass  string
	exitCode  int
	cacheHit  bool
	// interrupted marks a job killed by a forced shutdown (drain
	// deadline); its terminal record is withheld from the journal so a
	// restarted daemon re-runs it.
	interrupted bool
	// rejected marks a job refused at admission, which gave its
	// idempotency key back; its terminal record says so, so replay
	// leaves the key free too.
	rejected  bool
	recovered bool
	created   time.Time
	started   time.Time
	finished  time.Time
}

// markInterrupted flags the job as killed by a forced shutdown.
func (j *Job) markInterrupted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.interrupted = true
	return true
}

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// TraceContext reports the job's trace position (invalid when tracing
// is disabled) — the parent for lifecycle spans and the key clients use
// against GET /v1/jobs/{id}/trace.
func (j *Job) TraceContext() obs.SpanContext { return j.trace }

// setQueueSpan parks the open queue_wait span for the worker to close.
func (j *Job) setQueueSpan(sp *obs.ActiveSpan) {
	if sp == nil {
		return
	}
	j.mu.Lock()
	j.queueSpan = sp
	j.mu.Unlock()
}

// takeQueueSpan claims the parked queue_wait span (nil when tracing is
// off or it was already taken).
func (j *Job) takeQueueSpan() *obs.ActiveSpan {
	j.mu.Lock()
	sp := j.queueSpan
	j.queueSpan = nil
	j.mu.Unlock()
	return sp
}

// IdemKey reports the client idempotency key the job was submitted
// under ("" when none) — the cluster heartbeat carries it so a migrated
// re-enqueue dedups against client retries.
func (j *Job) IdemKey() string { return j.idemKey }

// Telemetry is the job-scoped counter/trace set: simulations launched on
// behalf of this job feed its histograms and trace live, so GET
// /v1/jobs/{id}/telemetry introspects an in-flight run, and each hands
// over its DRAM counts when it finishes. Results served from the result
// cache or joined onto another job's in-flight simulation contribute
// nothing (the counters then reflect only what this job itself
// executed).
func (j *Job) Telemetry() *telemetry.Set { return j.tel }

// State reports the current lifecycle position.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Output returns the rendered result (empty until done).
func (j *Job) Output() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.output
}

// Cancel requests cancellation: a queued job finishes immediately, a
// running one has its context canceled and finishes as soon as the
// simulation notices (the worker marks it canceled). Canceling a
// terminal job is a no-op and returns false.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	queuedStill := j.state == StateQueued
	j.mu.Unlock()
	j.cancel()
	if queuedStill {
		// The worker will observe the canceled context when it pops the
		// job, but the client deserves the terminal state right away.
		j.finish(StateCanceled, "", context.Canceled)
	}
	return true
}

// start transitions queued -> running; false when the job was canceled
// while waiting (the worker then skips it).
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish records the terminal state exactly once. The onTerminal hook
// runs before the event stream ends and Done closes, so a waiter on
// either never sees the job finished ahead of its journal record.
func (j *Job) finish(state State, output string, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.output = output
	j.finished = time.Now()
	if err != nil {
		j.errMsg = err.Error()
		j.errClass, j.exitCode = classify(err)
	}
	j.mu.Unlock()
	// Release the job's context, which would otherwise stay a child of
	// the daemon's base context for the daemon's lifetime.
	j.cancel()
	if j.onTerminal != nil {
		j.onTerminal(j)
	}
	j.events.Close()
	close(j.done)
}

// terminalRecord is the journal record of j's terminal state: "reject"
// for a job refused at admission, "finish" otherwise. ok is false while
// j is not terminal, and for an interrupted job, whose record is
// withheld so the next boot re-runs it.
func (j *Job) terminalRecord() (rec walRecord, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() || j.interrupted {
		return rec, false
	}
	rec = walRecord{Type: "finish", Job: j.ID, State: string(j.state), Error: j.errMsg}
	if j.rejected {
		rec.Type = "reject"
	}
	if j.state == StateDone {
		rec.Output = j.output
	}
	return rec, true
}

// view is the JSON rendering of a job for the HTTP API.
type view struct {
	ID        string     `json:"id"`
	Hash      string     `json:"hash"`
	State     State      `json:"state"`
	Kind      string     `json:"kind"`
	Spec      JobSpec    `json:"spec"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	CacheHit  bool       `json:"cache_hit,omitempty"`
	Recovered bool       `json:"recovered,omitempty"`
	Result    string     `json:"result,omitempty"`
	Error     *errorBody `json:"error,omitempty"`
}

// errorBody is the typed JSON error: Class and ExitCode carry the same
// 3/4/5 classification the CLI binaries exit with, so scripted clients
// can tell a protocol violation from a deadlock from an OOM without
// parsing prose.
type errorBody struct {
	Message  string `json:"message"`
	Class    string `json:"class"`
	ExitCode int    `json:"exit_code"`
}

func (j *Job) view(withResult bool) view {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := view{
		ID: j.ID, Hash: j.Hash, State: j.state, Kind: j.Spec.normalized().Kind,
		Spec: j.Spec, Created: j.created, CacheHit: j.cacheHit, Recovered: j.recovered,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if withResult {
		v.Result = j.output
	}
	if j.errMsg != "" {
		v.Error = &errorBody{Message: j.errMsg, Class: j.errClass, ExitCode: j.exitCode}
	}
	return v
}

// logLine is one numbered progress line. N is the line's stable
// sequence number (0-based over the job's lifetime), which the SSE
// layer exposes as the event id so a reconnecting client can replay
// exactly the lines it missed (Last-Event-ID).
type logLine struct {
	N    int
	Text string
}

// eventLog is a job's progress feed: a bounded replay buffer plus live
// subscribers, fed from exp.Params.Log through the job-scoped runner
// view. Slow consumers never block the simulation — a full subscriber
// channel drops the line for that subscriber only.
type eventLog struct {
	mu     sync.Mutex
	lines  []logLine
	total  int // lines ever appended (next sequence number)
	closed bool
	subs   map[chan logLine]struct{}
}

const eventBacklog = 1024

func newEventLog() *eventLog {
	return &eventLog{subs: make(map[chan logLine]struct{})}
}

// Append records one progress line and fans it out.
func (l *eventLog) Append(line string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ll := logLine{N: l.total, Text: line}
	l.total++
	if len(l.lines) < eventBacklog {
		l.lines = append(l.lines, ll)
	}
	for ch := range l.subs {
		select {
		case ch <- ll:
		default: // slow consumer: drop rather than stall the simulation
		}
	}
}

// SubscribeFrom returns the retained history after sequence number
// `after` (-1 = everything) and a live channel; cancel unregisters. The
// channel is closed when the log closes. A reconnecting SSE client
// passes its Last-Event-ID here and receives a gapless continuation.
func (l *eventLog) SubscribeFrom(after int) (history []logLine, ch chan logLine, cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ll := range l.lines {
		if ll.N > after {
			history = append(history, ll)
		}
	}
	ch = make(chan logLine, 64)
	if l.closed {
		close(ch)
		return history, ch, func() {}
	}
	l.subs[ch] = struct{}{}
	return history, ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[ch]; ok {
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// Close ends the feed: subscribers' channels close after the backlog.
func (l *eventLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for ch := range l.subs {
		delete(l.subs, ch)
		close(ch)
	}
}

// ringJobs is how many of the most recently finished jobs keep their
// telemetry event rings (16 KB each); older jobs keep only their
// counters, histograms and results, so the rings' memory does not grow
// with every job the daemon has run.
const ringJobs = 64

// registry indexes jobs by ID. prefix (the cluster node ID plus "-",
// or empty standalone) namespaces IDs so peers can route them back to
// the owning node.
type registry struct {
	prefix string
	mu     sync.Mutex
	jobs   map[string]*Job
	seq    int64

	// ringed holds the last ringJobs jobs to finish running, circularly
	// from ringNext.
	ringed   [ringJobs]*Job
	ringNext int
}

// retire records that j finished running, and drops the event rings
// of the job that thereby falls out of the last ringJobs.
func (r *registry) retire(j *Job) {
	r.mu.Lock()
	old := r.ringed[r.ringNext]
	r.ringed[r.ringNext] = j
	r.ringNext = (r.ringNext + 1) % ringJobs
	r.mu.Unlock()
	if old != nil {
		old.tel.DropRings()
	}
}

func newRegistry(prefix string) *registry {
	return &registry{prefix: prefix, jobs: make(map[string]*Job)}
}

func (r *registry) add(spec JobSpec, base context.Context, idemKey string, trace obs.SpanContext) *Job {
	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("%sjob-%06d", r.prefix, r.seq)
	r.mu.Unlock()
	j := newJob(id, spec, base)
	// Identity fields must land before publication: the moment the job
	// is in r.jobs, concurrent readers (heartbeat job reports, proxies)
	// read IdemKey and TraceContext lock-free.
	j.idemKey = idemKey
	j.trace = trace
	r.mu.Lock()
	r.jobs[id] = j
	r.mu.Unlock()
	return j
}

// newJob builds one queued job record.
func newJob(id string, spec JobSpec, base context.Context) *Job {
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if spec.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(base, time.Duration(spec.TimeoutMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	return &Job{
		ID: id, Hash: spec.Hash(), Spec: spec,
		ctx: ctx, cancel: cancel,
		events: newEventLog(),
		// Rings + counters only: full event capture is a CLI concern
		// (-trace-out); the daemon keeps the always-on cheap layer.
		tel:   telemetry.NewSet(telemetry.Options{}),
		done:  make(chan struct{}),
		state: StateQueued, created: time.Now(),
	}
}

// addRecovered reinstalls a journaled job under its original ID after a
// restart. Terminal jobs come back finished (their results remain
// fetchable); everything else comes back queued for re-execution. The
// registry's sequence is advanced past every recovered ID so new
// submissions never collide.
func (r *registry) addRecovered(rj *recoveredJob, base context.Context) *Job {
	j := newJob(rj.id, rj.spec, base)
	j.idemKey = rj.idem
	j.recovered = true
	if rj.state.Terminal() {
		j.state = rj.state
		j.output = rj.output
		j.finished = time.Now()
		if rj.errMsg != "" {
			j.errMsg = rj.errMsg
			j.errClass, j.exitCode = "error", 1
		}
		j.events.Close()
		close(j.done)
		j.cancel()
	}
	// Advance the sequence past the recovered ID's trailing counter so
	// new submissions never collide — with or without a node prefix
	// ("n2-job-000017" and "job-000017" both parse to 17).
	var n int64
	tail := rj.id
	if i := strings.LastIndex(tail, "job-"); i >= 0 {
		tail = tail[i+len("job-"):]
	}
	if _, err := fmt.Sscanf(tail, "%d", &n); err != nil {
		n = 0
	}
	r.mu.Lock()
	if n > r.seq {
		r.seq = n
	}
	r.jobs[j.ID] = j
	r.mu.Unlock()
	return j
}

func (r *registry) get(id string) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

func (r *registry) list() []*Job {
	r.mu.Lock()
	out := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		out = append(out, j)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// cacheEntry is one persisted result: the content hash and the rendered
// output. Only successful results are cached — failures must re-run.
type cacheEntry struct {
	Hash   string `json:"hash"`
	Kind   string `json:"kind"`
	Output string `json:"output"`
}

// resultCache is the content-addressed result store: an in-memory LRU
// keyed by spec hash, optionally persisted to disk so a restarted
// daemon serves warm results immediately.
type resultCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = 256
	}
	return &resultCache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the cached output for hash, refreshing its recency.
func (c *resultCache) Get(hash string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[hash]
	if !ok {
		return cacheEntry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(cacheEntry), true
}

// Put stores an entry, evicting the least recently used beyond max.
func (c *resultCache) Put(e cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[e.Hash]; ok {
		c.ll.MoveToFront(el)
		el.Value = e
		return
	}
	c.m[e.Hash] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(cacheEntry).Hash)
	}
}

// Len reports the resident entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Save writes the cache to path as JSON, most recent first (atomic via
// rename). A no-op for an empty path.
func (c *resultCache) Save(path string) error {
	if path == "" {
		return nil
	}
	c.mu.Lock()
	entries := make([]cacheEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(cacheEntry))
	}
	c.mu.Unlock()
	b, err := json.MarshalIndent(entries, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a Save file; a missing file is not an error (first boot).
func (c *resultCache) Load(path string) error {
	if path == "" {
		return nil
	}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var entries []cacheEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		return fmt.Errorf("server: corrupt cache file %s: %w", path, err)
	}
	// Insert in reverse so the file's most-recent entry ends up most
	// recent in the LRU too.
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Hash != "" {
			c.Put(entries[i])
		}
	}
	return nil
}
