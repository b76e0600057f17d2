package server

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eruca/internal/cli"
	"eruca/internal/config"
	"eruca/internal/exp"
)

// testSpec is a small, fast sweep: one system, one mix.
func testSpec() JobSpec {
	return JobSpec{
		Kind: "sweep", Exp: "sweep", Systems: []string{"ddr4"},
		Mixes: []string{"mix0"}, Instrs: 20_000, Frag: 0.1,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.QueueMax == 0 {
		cfg.QueueMax = 16
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func waitJob(t *testing.T, j *Job, within time.Duration) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(within):
		t.Fatalf("job %s stuck in state %s after %s", j.ID, j.State(), within)
	}
}

// TestDedupConcurrentSubmissions is the end-to-end singleflight proof:
// N concurrent submissions of the same spec run exactly one underlying
// simulation, and every job's result is byte-identical to a direct
// exp.Runner call with the same parameters.
func TestDedupConcurrentSubmissions(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	spec := testSpec()

	const n = 4
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := s.Submit(spec, SubmitOpts{})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, j := range jobs {
		waitJob(t, j, 60*time.Second)
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s state %s, want done", j.ID, st)
		}
	}

	// Exactly one simulation ran; the other N-1 jobs were served by a
	// singleflight join or the result cache. The group they shared was
	// released with the last of them, its counters kept.
	launched, joined, pools := s.runnerCounters()
	if launched != 1 {
		t.Errorf("launched %d simulations, want exactly 1", launched)
	}
	if pools != 0 {
		t.Errorf("%d runner groups left after every job finished, want 0", pools)
	}
	hits := s.metrics.cacheHits.Load()
	if joined+hits < n-1 {
		t.Errorf("dedup evidence: joined=%d cacheHits=%d, want >= %d combined", joined, hits, n-1)
	}

	// Byte-identical to a direct Runner call.
	direct := exp.NewRunner(exp.Params{Instrs: spec.Instrs, Seed: 42, Mixes: spec.Mixes})
	sys, err := cli.ParseSystems(strings.Join(spec.Systems, ","), 4, config.DefaultBusMHz)
	if err != nil {
		t.Fatal(err)
	}
	table, err := direct.Sweep(sys, spec.Frag)
	if err != nil {
		t.Fatal(err)
	}
	want := table.Format()
	for _, j := range jobs {
		if got := j.Output(); got != want {
			t.Errorf("job %s output differs from direct runner:\n got: %q\nwant: %q", j.ID, got, want)
		}
	}

	// A later identical submission is a pure cache hit: still one sim.
	j, _, err := s.Submit(spec, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 10*time.Second)
	if launched, _, _ := s.runnerCounters(); launched != 1 {
		t.Errorf("resubmission launched a new simulation (total %d)", launched)
	}
	if got := j.Output(); got != want {
		t.Errorf("cached output differs: %q", got)
	}
}

// TestRunnerGroupsReleased pins the daemon's memory to its running
// work: each finished job releases its runner group (and the Results
// it memoized), while /metrics keeps counting the simulations run.
func TestRunnerGroupsReleased(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	const n = 3
	for seed := int64(1); seed <= n; seed++ {
		j, _, err := s.Submit(JobSpec{Kind: "sim", Instrs: 4000, Frag: 0.1, Seed: seed}, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j, 60*time.Second)
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s state %s, want done (%s)", j.ID, st, jobEvents(j))
		}
		if _, _, pools := s.runnerCounters(); pools != 0 {
			t.Fatalf("%d runner groups left after job at seed %d finished, want 0", pools, seed)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{"eruca_sim_runs_total 3\n", "eruca_runner_pools 0\n"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, grepMetrics(rec.Body.String(), "eruca_"))
		}
	}
}

// TestRunnerGroupConcurrent runs jobs of one parameter group from many
// workers at once, round after round: each round's group is created,
// shared, and released exactly once, and no simulation it launched is
// lost from (or counted twice in) the daemon's totals.
func TestRunnerGroupConcurrent(t *testing.T) {
	const n, rounds = 4, 3
	s := newTestServer(t, Config{Workers: n, SimParallel: 2})
	for round := 0; round < rounds; round++ {
		jobs := make([]*Job, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// One group (same instrs, seed and knobs), distinct
				// results: every job launches its own simulation.
				spec := JobSpec{Kind: "sim", Instrs: 4000, Frag: float64(round*n+i+1) / 100}
				j, _, err := s.Submit(spec, SubmitOpts{})
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				jobs[i] = j
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for _, j := range jobs {
			waitJob(t, j, 60*time.Second)
			if st := j.State(); st != StateDone {
				t.Fatalf("job %s state %s, want done (%s)", j.ID, st, jobEvents(j))
			}
		}
		launched, _, pools := s.runnerCounters()
		if pools != 0 {
			t.Fatalf("round %d: %d runner groups left, want 0", round, pools)
		}
		if want := int64((round + 1) * n); launched != want {
			t.Fatalf("round %d: %d simulations counted, want %d", round, launched, want)
		}
	}
}

// TestCancelInFlight proves DELETE semantics: canceling a running job
// stops the simulation promptly and frees the worker for new jobs.
func TestCancelInFlight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// A deliberately long simulation (tens of seconds if left alone).
	long := JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Instrs: 50_000_000, Frag: 0.1}
	j, _, err := s.Submit(long, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", j.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	canceledAt := time.Now()
	if !s.Cancel(j.ID) {
		t.Fatal("cancel refused")
	}
	waitJob(t, j, 5*time.Second)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state %s, want canceled", st)
	}
	if took := time.Since(canceledAt); took > 3*time.Second {
		t.Errorf("cancellation took %s, want prompt", took)
	}

	// Worker is free again: a short job completes.
	quick, _, err := s.Submit(testSpec(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, quick, 60*time.Second)
	if st := quick.State(); st != StateDone {
		t.Fatalf("post-cancel job state %s, want done", st)
	}

	// A canceled spec was evicted, not cached: resubmitting runs fresh.
	if _, ok := s.cache.Get(long.Hash()); ok {
		t.Error("canceled result leaked into the result cache")
	}
}

// TestJobTimeout proves the per-job deadline (the client-side context
// cancel of the acceptance criteria) stops the run.
func TestJobTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	j, _, err := s.Submit(JobSpec{
		Kind: "sim", System: "ddr4", Mix: "mix0",
		Instrs: 50_000_000, Frag: 0.1, TimeoutMS: 300,
	}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 10*time.Second)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state %s, want canceled (deadline)", st)
	}
}

// A finished job's context is canceled by the time Done closes, so the
// daemon's base context does not keep it for the daemon's lifetime.
func TestFinishReleasesJobContext(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	j, _, err := s.Submit(JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Instrs: 2000, Frag: 0.1}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 10*time.Second)
	if st := j.State(); st != StateDone {
		t.Fatalf("state %s, want done", st)
	}
	if j.ctx.Err() == nil {
		t.Error("finished job's context still live")
	}
}

// TestCancelQueued cancels a job before a worker picks it up.
func TestCancelQueued(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	blocker, _, err := s.Submit(JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Instrs: 50_000_000, Frag: 0.1}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := s.Submit(JobSpec{Kind: "sim", System: "ddr4", Mix: "mix1", Instrs: 50_000_000, Frag: 0.1}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(queued.ID) {
		t.Fatal("cancel refused for queued job")
	}
	waitJob(t, queued, 2*time.Second)
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued job state %s, want canceled", st)
	}
	if !s.Cancel(blocker.ID) {
		t.Fatal("cancel refused for running job")
	}
	waitJob(t, blocker, 5*time.Second)
}

// TestAdmissionControl fills the queue and expects ErrQueueFull.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueMax: 1})
	long := func(mix string) JobSpec {
		return JobSpec{Kind: "sim", System: "ddr4", Mix: mix, Instrs: 50_000_000, Frag: 0.1}
	}
	first, _, err := s.Submit(long("mix0"), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the first job so the queue is empty.
	deadline := time.Now().Add(10 * time.Second)
	for first.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, err := s.Submit(long("mix1"), SubmitOpts{}); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	if _, _, err := s.Submit(long("mix2"), SubmitOpts{}); err != ErrQueueFull {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	if got := s.metrics.rejectedFull.Load(); got != 1 {
		t.Errorf("rejectedFull = %d, want 1", got)
	}
	for _, j := range s.Jobs() {
		j.Cancel()
	}
}

// TestDrain proves graceful shutdown: admission closes (503-class
// error), queued and in-flight jobs still finish, and the cache is
// flushed to disk for the next boot.
func TestDrain(t *testing.T) {
	cachePath := t.TempDir() + "/cache.json"
	s := newTestServer(t, Config{Workers: 1, CachePath: cachePath})
	running, _, err := s.Submit(testSpec(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	queuedSpec := testSpec()
	queuedSpec.Seed = 7 // different content hash; must also complete
	queued, _, err := s.Submit(queuedSpec, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Admission must close promptly.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.Submit(testSpec(), SubmitOpts{}); err != ErrQueueClosed {
		t.Fatalf("submit during drain: err = %v, want ErrQueueClosed", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range []*Job{running, queued} {
		if st := j.State(); st != StateDone {
			t.Errorf("job %s state %s after drain, want done", j.ID, st)
		}
	}

	// The flushed cache warms a fresh server: same spec, zero sims.
	s2, err := New(Config{Workers: 1, CachePath: cachePath})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Close()
	j, _, err := s2.Submit(testSpec(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 10*time.Second)
	if launched, _, _ := s2.runnerCounters(); launched != 0 {
		t.Errorf("persisted cache miss: %d sims launched on warm boot", launched)
	}
	if j.Output() != running.Output() {
		t.Error("warm-boot output differs from original run")
	}
}

// TestDrainDeadlineCancels proves the hard half of drain: when the
// deadline fires first, remaining jobs are canceled rather than leaked.
func TestDrainDeadlineCancels(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	j, _, err := s.Submit(JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Instrs: 50_000_000, Frag: 0.1}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain returned nil despite deadline")
	}
	if st := j.State(); st != StateCanceled {
		t.Errorf("job state %s after hard drain, want canceled", st)
	}
}

// --- unit tests -----------------------------------------------------

func TestQueuePriorityOrder(t *testing.T) {
	q := newQueue(10)
	mk := func(prio int, id string) *Job {
		return &Job{ID: id, Spec: JobSpec{Priority: prio}}
	}
	for _, j := range []*Job{mk(0, "a"), mk(5, "b"), mk(0, "c"), mk(5, "d"), mk(9, "e")} {
		if err := q.Push(j, false); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 5; i++ {
		j, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		got = append(got, j.ID)
	}
	want := "e b d a c" // priority desc, FIFO within a level
	if g := strings.Join(got, " "); g != want {
		t.Errorf("pop order %q, want %q", g, want)
	}
}

func TestQueueBoundsAndClose(t *testing.T) {
	q := newQueue(2)
	if err := q.Push(&Job{ID: "a"}, false); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(&Job{ID: "b"}, false); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(&Job{ID: "c"}, false); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	q.Close()
	if err := q.Push(&Job{ID: "d"}, false); err != ErrQueueClosed {
		t.Fatalf("err = %v, want ErrQueueClosed", err)
	}
	// Close drains the backlog before Pop reports closed.
	if j, ok := q.Pop(); !ok || j.ID != "a" {
		t.Fatalf("pop after close: %v %v", j, ok)
	}
	if j, ok := q.Pop(); !ok || j.ID != "b" {
		t.Fatalf("pop after close: %v %v", j, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty closed queue returned ok")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.Put(cacheEntry{Hash: "a", Output: "1"})
	c.Put(cacheEntry{Hash: "b", Output: "2"})
	if _, ok := c.Get("a"); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.Put(cacheEntry{Hash: "c", Output: "3"}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
}

func TestResultCachePersistence(t *testing.T) {
	path := t.TempDir() + "/cache.json"
	c := newResultCache(8)
	c.Put(cacheEntry{Hash: "a", Kind: "sim", Output: "one"})
	c.Put(cacheEntry{Hash: "b", Kind: "sweep", Output: "two"})
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	c2 := newResultCache(8)
	if err := c2.Load(path); err != nil {
		t.Fatal(err)
	}
	if e, ok := c2.Get("a"); !ok || e.Output != "one" {
		t.Errorf("reloaded a = %+v %v", e, ok)
	}
	if e, ok := c2.Get("b"); !ok || e.Output != "two" {
		t.Errorf("reloaded b = %+v %v", e, ok)
	}
	// A missing file is a clean first boot, not an error.
	if err := newResultCache(8).Load(t.TempDir() + "/absent.json"); err != nil {
		t.Errorf("missing file: %v", err)
	}
}

func TestSpecHashNormalization(t *testing.T) {
	// Explicit defaults and omitted defaults are the same job.
	a := JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Frag: 0.1}
	b := JobSpec{Kind: "sim", System: "ddr4", Mix: "mix0", Frag: 0.1,
		Instrs: exp.DefaultParams().Instrs, Seed: 42, Planes: 4, Check: "off"}
	if a.Hash() != b.Hash() {
		t.Error("defaulted and explicit specs hash differently")
	}
	// Service knobs do not change identity.
	c := a
	c.Priority, c.TimeoutMS = 9, 5000
	if a.Hash() != c.Hash() {
		t.Error("priority/timeout changed the content hash")
	}
	// A different seed is a different job.
	d := a
	d.Seed = 7
	if a.Hash() == d.Hash() {
		t.Error("seed change did not change the hash")
	}
}

// Two spellings of one design point are one eval job: ewlr_bits is
// masked under ewlr=off, so giving it a value changes nothing.
func TestEvalPointAliasHash(t *testing.T) {
	a := JobSpec{Kind: "eval", Point: map[string]string{"planes": "2", "ewlr": "off"}}
	b := JobSpec{Kind: "eval", Point: map[string]string{"planes": "2", "ewlr": "off", "ewlr_bits": "4"}}
	if a.Hash() != b.Hash() {
		t.Error("aliased eval points hash differently")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []JobSpec{
		{Kind: "nope"},
		{Kind: "sim", System: "not-a-system"},
		{Kind: "sim", System: "ddr4", Benches: []string{"not-a-bench"}},
		{Kind: "sim", System: "ddr4", Mix: "mix0", Frag: 2},
		{Kind: "sweep", Exp: "fig99"},
		{Kind: "sweep", Exp: "sweep"}, // no systems
		{Kind: "sim", System: "ddr4", Mix: "mix0", Check: "sometimes"},
		{Kind: "sim", System: "ddr4", Mix: "mix0", Faults: "kinds=bogus"},
		{Kind: "sim", System: "ddr4", Mix: "mix0", TimeoutMS: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	good := []JobSpec{
		{},
		{Kind: "sim", System: "vsb-ewlr-rap-ddb", Benches: []string{"mcf", "lbm"}, Frag: 0.5},
		{Kind: "sweep", Exp: "fig12"},
		{Kind: "sweep", Exp: "sweep", Systems: []string{"ddr4", "vsb-ewlr-rap-ddb"}},
		{Kind: "sim", System: "ddr4", Mix: "mix0", Check: "log", Watchdog: -1, Latency: 5000},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d rejected: %v", i, err)
		}
	}
}
