package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"eruca/internal/config"
	"eruca/internal/obs"
	"eruca/internal/search"
	"eruca/internal/server"
	"eruca/internal/sim"
	"eruca/internal/workload"
)

// service-mix sends erucad the traffic of the repository's own callers.
// Measured against one daemon (-workers 2 -parallel 1): a run of
// examples/serve submits 9 sim jobs and a run of examples/search 1
// search job; running each again replays all 10 through their
// Idempotency-Keys (eruca_jobs_idem_replayed_total 10); and neither
// produced a result-cache hit (eruca_result_cache_hits_total 0, and
// eruca_search_cache_hits_total 0 over 96 search points). One pass of a
// service-mix client is those 10 jobs at a fresh seed, each replayed
// once.
const (
	serveInstrs  = 120_000 // examples/serve's default instructions per core
	searchInstrs = 40_000  // examples/search's default full-budget instructions
)

// serveBenches is the four-core workload examples/serve submits.
var serveBenches = []string{"mcf", "lbm", "soplex", "milc"}

// callerJob is one submission of a pass with the Idempotency-Key its
// caller sends.
type callerJob struct {
	spec server.JobSpec
	key  string
}

// callerPass is the jobs one run of examples/serve and one of
// examples/search submit, at seed, with their instruction budgets
// divided by the scale's svcDiv: the baseline and the plane-count sweep
// of naive VSB and ERUCA, then a search over the plane count.
func callerPass(e *env, seed int64) []callerJob {
	instrs := serveInstrs / e.sc.svcDiv
	var jobs []callerJob
	add := func(system string, planes int) {
		spec := server.JobSpec{Kind: "sim", System: system, Benches: serveBenches, Planes: planes,
			Instrs: instrs, Frag: 0.1, Seed: seed}
		key := fmt.Sprintf("planesweep|%s|p%d|%d|s%d", system, planes, instrs, seed)
		jobs = append(jobs, callerJob{spec, key})
	}
	add("ddr4", 0)
	for _, planes := range []int{2, 4, 8, 16} {
		for _, preset := range []string{"vsb-naive-ddb", "vsb-ewlr-rap-ddb"} {
			add(preset, planes)
		}
	}
	sp := search.Spec{Dims: []search.DimSpec{{Name: "planes"}}, Mix: "mix0", Frag: 0.1, Seed: seed,
		Instrs: searchInstrs / e.sc.svcDiv}
	return append(jobs, callerJob{server.JobSpec{Kind: "search", Search: &sp, Seed: seed}, "search-" + sp.Hash()})
}

// svcClients is the closed loop's client count; each holds one
// connection.
const svcClients = 2

// daemon is one in-process erucad behind an httptest listener, with its
// WAL in a scratch directory under the run's artifacts.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
	dir string
}

func startDaemon(e *env, tracer *obs.Tracer) (*daemon, error) {
	dir, err := os.MkdirTemp(e.dir, "wal-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{WALDir: dir, Workers: 2, SimParallel: 1, Tracer: tracer})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

func (d *daemon) stop() error {
	d.ts.Close()
	err := d.srv.Close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// timeServerSetup is service-mix's set-up: from server.New until the
// first /healthz answers 200.
func timeServerSetup(e *env) (time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(e, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.Get(d.ts.URL + "/healthz")
	took := time.Since(start)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	return took, err
}

// svcRun is the outcome of one closed-loop service phase. Durations are
// calibrated.
type svcRun struct {
	replays  []time.Duration
	rejected int
	first    *server.JobSpec // client 0's first cold job
	firstOut string
	spans    []obs.Span // the daemon's span ring, when traced
}

// pairResult is one client's cold submission and its replay in a round.
type pairResult struct {
	cold, replay time.Duration // wall times
	out          string
	err          error
}

// serviceLoop runs svcClients clients against a fresh daemon until d of
// calibrated time has passed, in whole passes. The clients move in
// lockstep rounds: in each, every client submits its pass's next job,
// waits for it, and replays it through the same Idempotency-Key; then
// the calibration kernel runs once per core while the daemon is idle,
// and after a pass's last round the heap is collected.
// Every request is a POST, an SSE wait for "event: done", and a GET of
// the result; a replay must return the cold result byte for byte.
// Cold submissions are the operations recorded in st; replays go to the
// svcRun. With a tracer the daemon records spans (returned in the
// svcRun) and the harness spans parent them through traceparent.
func serviceLoop(e *env, tracer *obs.Tracer, d time.Duration, st *opStats) (*svcRun, error) {
	dm, err := startDaemon(e, tracer)
	if err != nil {
		return nil, err
	}
	// A failed drain (say, a WAL compaction error) fails a check.
	defer func() { e.rep.check(dm.stop()) }()
	run := &svcRun{}
	var clients [svcClients]*client
	var passes [svcClients][]callerJob
	for c := range clients {
		clients[c] = newClient(e, dm.ts.URL)
		defer clients[c].hc.CloseIdleConnections()
	}

	st.clients, st.clock.cores = svcClients, svcClients
	st.clock.tick()
	n := len(callerPass(e, 0))
	for round := 0; round == 0 || round%n != 0 || st.clock.cal < d; round++ {
		pass, k := round/n, round%n
		var res [svcClients]pairResult
		var wg sync.WaitGroup
		for c := range clients {
			if k == 0 {
				passes[c] = callerPass(e, e.seed+1+int64(svcClients*pass+c)) // never e.seed
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				res[c] = clients[c].pair(passes[c][k])
			}(c)
		}
		wg.Wait()
		scale := st.clock.tick()
		if k == n-1 {
			// The daemon keeps every job, so its heap grows all run; a
			// collection at each pass's end keeps the peak from
			// depending on where the collector's own cycles fall.
			st.clock.collect()
		}
		for c, r := range res {
			e.rep.check(r.err)
			if errors.As(r.err, new(refusedError)) {
				run.rejected++
			}
			if r.err != nil {
				continue
			}
			job := passes[c][k]
			st.op(r.cold, time.Duration(float64(r.cold)*scale), jobInstrs(job.spec))
			run.replays = append(run.replays, time.Duration(float64(r.replay)*scale))
			if pass == 0 {
				sum := sha256.Sum256([]byte(r.out))
				e.rep.exact(fmt.Sprintf("c%d.job%d.sha256", c, k), hex.EncodeToString(sum[:]))
				if c == 0 && k == 0 {
					run.first, run.firstOut = &job.spec, r.out
				}
			}
		}
	}
	if tracer != nil {
		run.spans, err = fetchSpans(dm.ts.URL)
	}
	return run, err
}

// client is one closed-loop caller with its own single connection.
type client struct {
	e    *env
	base string
	hc   *http.Client
}

func newClient(e *env, base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{e: e, base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// refusedError is a submission erucad refused with 429 or 503.
type refusedError struct{ status int }

func (r refusedError) Error() string {
	return fmt.Sprintf("POST /v1/jobs refused: status %d", r.status)
}

// pair submits job cold, then replays it through the same
// Idempotency-Key; the replay must answer 200 with the same result.
func (cl *client) pair(job callerJob) pairResult {
	out, cold, err := cl.submit(job.spec, job.key, http.StatusAccepted)
	if err != nil {
		return pairResult{err: err}
	}
	again, replay, err := cl.submit(job.spec, job.key, http.StatusOK)
	if err == nil && again != out {
		err = fmt.Errorf("replay of %s differs from its cold result", job.key)
	}
	return pairResult{cold: cold, replay: replay, out: out, err: err}
}

// jobInstrs counts the instructions a sim job simulates (warm-up
// included, all cores); other kinds count none.
func jobInstrs(spec server.JobSpec) int64 {
	if spec.Kind != "sim" {
		return 0
	}
	return simulatedInstrs(sim.Options{Benches: spec.Benches, Instrs: spec.Instrs, Warmup: spec.Warmup})
}

// submit POSTs spec, waits on the job's SSE stream for "event: done",
// and GETs its result. It returns the result and the request's latency.
func (cl *client) submit(spec server.JobSpec, idem string, want int) (string, time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	sp := cl.e.tr.Start(cl.e.root, "http", "submit")
	defer sp.End()
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, cl.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Idempotency-Key", idem)
	obs.Inject(req.Header, sp.Context())
	var job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Result string `json:"result"`
	}
	status, err := cl.getJSON(req, &job)
	if err != nil {
		return "", 0, err
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		return "", 0, refusedError{status}
	}
	if status != want {
		return "", 0, fmt.Errorf("POST /v1/jobs: status %d, want %d", status, want)
	}
	if err := cl.awaitDone(job.ID); err != nil {
		return "", 0, err
	}
	req, err = http.NewRequest(http.MethodGet, cl.base+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		return "", 0, err
	}
	if status, err = cl.getJSON(req, &job); err != nil {
		return "", 0, err
	}
	took := time.Since(start)
	if status != http.StatusOK || job.State != "done" {
		return "", 0, fmt.Errorf("GET %s: status %d, state %q", job.ID, status, job.State)
	}
	return job.Result, took, nil
}

// awaitDone reads the job's SSE stream until its terminal frame, which
// must report the state "done".
func (cl *client) awaitDone(id string) error {
	resp, err := cl.hc.Get(cl.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20) // search frontier lines carry JSON
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			if state := strings.TrimPrefix(line, "data: "); state != "done" {
				return fmt.Errorf("job %s ended %s", id, state)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended without a done frame", id)
}

func (cl *client) getJSON(req *http.Request, v any) (int, error) {
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

func fetchSpans(base string) ([]obs.Span, error) {
	resp, err := http.Get(base + "/v1/traces")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/traces: %s", resp.Status)
	}
	var v struct {
		Spans []obs.Span `json:"spans"`
	}
	return v.Spans, json.NewDecoder(resp.Body).Decode(&v)
}

// serverKinds are the span kinds whose time the server-layer metrics
// break out: admit and the WAL append sit on every submission, the
// cache lookup on every executed job, queue_wait and run on the cold
// path.
var serverKinds = []obs.Kind{obs.KindAdmit, obs.KindWALAppend, obs.KindQueueWait, obs.KindCacheLookup, obs.KindRun}

// serverLayer runs the service loop twice for phase each — untraced,
// then with the daemon's tracer on — and reports the server-layer
// metrics from the traced phase's span ring. Operations of the traced
// phase go to st, and its client 0's first cold job becomes the
// representative simulation.
func serverLayer(e *env, phase time.Duration, st *opStats) error {
	plainSt := &opStats{}
	if _, err := serviceLoop(e, nil, phase, plainSt); err != nil {
		return err
	}
	traced, err := serviceLoop(e, obs.NewTracer("", 1<<16), phase, st)
	if err != nil {
		return err
	}
	r := e.rep
	self := selfTimes(traced.spans)
	for _, k := range serverKinds {
		var dur, own []time.Duration
		for _, sp := range traced.spans {
			if sp.Kind == k {
				dur = append(dur, sp.Duration())
				own = append(own, self[sp.ID])
			}
		}
		if len(dur) == 0 {
			r.check(fmt.Errorf("server: no %s spans in the traced phase", k))
			continue
		}
		note := fmt.Sprintf("n=%d", len(dur))
		r.add("server."+string(k)+"_p50_ms", median(durationsMS(dur)), "ms", true, note)
		r.add("server."+string(k)+"_self_p50_ms", median(durationsMS(own)), "ms", true, note)
	}
	replays := durationsMS(traced.replays)
	tv, p := tail(replays)
	r.add("server.replay_p50_ms", median(replays), "ms", true, fmt.Sprintf("calibrated; n=%d", len(replays)))
	r.add("server.replay_tail_ms", tv, "ms", true, fmt.Sprintf("calibrated; p%g of n=%d", p*100, len(replays)))
	r.add("server.rejected_total", float64(traced.rejected), "count", true, "")
	r.add("server.trace_overhead_frac", 1-st.rate()/plainSt.rate(), "frac", true,
		"1 - traced/untraced cold submissions per calibrated second")
	e.spans = append(e.spans, traced.spans...)

	if traced.first == nil {
		return fmt.Errorf("server: the traced phase completed no cold job")
	}
	opt, err := jobSimOptions(*traced.first)
	if err != nil {
		return err
	}
	want := traced.firstOut
	st.rep = repRun{opt: &opt, check: func(res *sim.Result) error { return sameSummary(want, res) }}
	return nil
}

// noServerLayer reports the server-layer metrics of a workload that
// runs no erucad: each is 0.
func noServerLayer(r *report) {
	const note = "no erucad in this workload"
	for _, k := range serverKinds {
		r.add("server."+string(k)+"_p50_ms", 0, "ms", true, note)
		r.add("server."+string(k)+"_self_p50_ms", 0, "ms", true, note)
	}
	r.add("server.replay_p50_ms", 0, "ms", true, note)
	r.add("server.replay_tail_ms", 0, "ms", true, note)
	r.add("server.rejected_total", 0, "count", true, note)
	r.add("server.trace_overhead_frac", 0, "frac", true, note)
}

// selfTimes maps each span ID to its duration minus the part of its
// interval that its children cover.
func selfTimes(spans []obs.Span) map[string]time.Duration {
	kids := map[string][]obs.Span{}
	for _, sp := range spans {
		if sp.Parent != "" {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, sp := range spans {
		out[sp.ID] = sp.Duration() - covered(sp, kids[sp.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent's.
func covered(parent obs.Span, kids []obs.Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// jobSimOptions is the simulation erucad runs for a "sim" job at the
// stock bus.
func jobSimOptions(spec server.JobSpec) (sim.Options, error) {
	planes := spec.Planes
	if planes == 0 {
		planes = 4
	}
	sys, err := config.ByName(spec.System, planes, busMHz)
	if err != nil {
		return sim.Options{}, err
	}
	benches := spec.Benches
	if spec.Mix != "" {
		m, err := workload.MixByName(spec.Mix)
		if err != nil {
			return sim.Options{}, err
		}
		benches = m.Bench
	}
	return sim.Options{Sys: sys, Benches: benches, Instrs: spec.Instrs, Warmup: spec.Instrs / 2, Frag: spec.Frag, Seed: spec.Seed}, nil
}

// sameSummary checks a replayed simulation against the JSON result
// erucad returned for the same job.
func sameSummary(out string, res *sim.Result) error {
	var s server.SimSummary
	if err := json.Unmarshal([]byte(out), &s); err != nil {
		return err
	}
	if s.BusCycles != res.BusCycles || floats(s.IPC) != floats(res.IPC) ||
		s.Acts != res.DRAM.Acts || s.Reads != res.DRAM.Reads || s.Writes != res.DRAM.Writes {
		return fmt.Errorf("replayed job simulation differs from erucad's result (bus cycles %d vs %d)", res.BusCycles, s.BusCycles)
	}
	return nil
}
