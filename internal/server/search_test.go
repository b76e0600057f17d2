package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eruca/internal/search"
)

// searchJobSpec is a small, fast autotuning run: a 2x2 space with two
// halving rungs, cheap enough for every test to run it end to end.
func searchJobSpec() JobSpec {
	return JobSpec{
		Kind: "search",
		Search: &search.Spec{
			Dims: []search.DimSpec{
				{Name: "planes", Values: []string{"1", "2"}},
				{Name: "ddb"},
			},
			Seed:   7,
			Instrs: 4000,
			Rungs:  2,
		},
	}
}

// TestSearchJobEndToEnd submits a search job, checks the streamed
// frontier lines, the parsed result, the Prometheus counters, and that
// an identical resubmission is a pure result-cache hit (zero new point
// evaluations).
func TestSearchJobEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	j, _, err := s.Submit(searchJobSpec(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 120*time.Second)
	if st := j.State(); st != StateDone {
		t.Fatalf("search job state %s, want done (%s)", st, jobEvents(j))
	}
	res, err := search.ParseResult([]byte(j.Output()))
	if err != nil {
		t.Fatalf("unparsable search output: %v\n%s", err, j.Output())
	}
	if len(res.Frontier) == 0 || res.PointsEvaluated == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	for _, p := range res.Frontier {
		if p.IPC <= 0 || p.EnergyNJ <= 0 {
			t.Errorf("implausible frontier point %+v", p)
		}
	}

	// The SSE feed carried incumbent-frontier lines.
	if ev := jobEvents(j); !strings.Contains(ev, "frontier (") {
		t.Errorf("no frontier lines in job events:\n%s", ev)
	}

	// Search metrics are exposed on /metrics with live values.
	points := s.metrics.searchPoints.Load()
	if points == 0 {
		t.Error("eruca_search_points_total stayed zero")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"eruca_search_points_total",
		"eruca_search_cache_hits_total",
		"eruca_search_frontier_size",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// Identical resubmission: served from the content-addressed cache,
	// byte-identical, no new point evaluations.
	j2, _, err := s.Submit(searchJobSpec(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2, 30*time.Second)
	if j2.Output() != j.Output() {
		t.Error("resubmitted search output differs")
	}
	if got := s.metrics.searchPoints.Load(); got != points {
		t.Errorf("resubmission evaluated %d new points", got-points)
	}
}

// TestEvalJobKind exercises the "eval" job directly: a partial
// assignment is completed with defaults and canonicalized, and two
// spellings of the same canonical point share one simulation through
// the runner cache even though their job hashes differ.
func TestEvalJobKind(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	j, _, err := s.Submit(JobSpec{Kind: "eval", Point: map[string]string{"planes": "2", "ewlr": "off"}, Instrs: 4000}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 60*time.Second)
	if st := j.State(); st != StateDone {
		t.Fatalf("eval job state %s, want done (%s)", st, jobEvents(j))
	}
	var sum EvalSummary
	if err := json.Unmarshal([]byte(j.Output()), &sum); err != nil {
		t.Fatalf("unparsable eval output: %v\n%s", err, j.Output())
	}
	if !strings.Contains(sum.Point, "planes=2") || !strings.Contains(sum.Point, "ewlr_bits=-") {
		t.Errorf("point not canonicalized: %q", sum.Point)
	}
	if sum.IPC <= 0 || sum.EnergyNJ <= 0 {
		t.Errorf("implausible metrics: %+v", sum)
	}

	// Same canonical point, different spelling (ewlr_bits is masked
	// under ewlr=off): same job hash, so the result cache serves it —
	// the launched counter must not move.
	launched, _, _ := s.runnerCounters()
	j2, _, err := s.Submit(JobSpec{Kind: "eval",
		Point: map[string]string{"planes": "2", "ewlr": "off", "ewlr_bits": "4"}, Instrs: 4000}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2, 60*time.Second)
	if st := j2.State(); st != StateDone {
		t.Fatalf("aliased eval job state %s (%s)", st, jobEvents(j2))
	}
	if l2, _, _ := s.runnerCounters(); l2 != launched {
		t.Errorf("aliased point re-simulated: launched %d -> %d", launched, l2)
	}
	var sum2 EvalSummary
	if err := json.Unmarshal([]byte(j2.Output()), &sum2); err != nil {
		t.Fatal(err)
	}
	if sum2 != sum {
		t.Errorf("aliased point scored differently: %+v vs %+v", sum2, sum)
	}
}

// TestSearchValidation pins admission-time rejection: unseeded search
// specs (typed ErrUnseeded) and malformed eval points never cost a
// queue slot.
func TestSearchValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	spec := searchJobSpec()
	spec.Search.Seed = 0
	if _, _, err := s.Submit(spec, SubmitOpts{}); !errors.Is(err, search.ErrUnseeded) {
		t.Errorf("unseeded search: err = %v, want ErrUnseeded", err)
	}
	if _, _, err := s.Submit(JobSpec{Kind: "search"}, SubmitOpts{}); err == nil {
		t.Error("search job without a spec accepted")
	}
	if _, _, err := s.Submit(JobSpec{Kind: "eval"}, SubmitOpts{}); err == nil {
		t.Error("eval job without a point accepted")
	}
	if _, _, err := s.Submit(JobSpec{Kind: "eval", Point: map[string]string{"planes": "3"}}, SubmitOpts{}); err == nil {
		t.Error("off-ladder eval point accepted")
	}
	if _, _, err := s.Submit(JobSpec{Kind: "eval", Point: map[string]string{"warp": "9"}}, SubmitOpts{}); err == nil {
		t.Error("unknown eval dimension accepted")
	}
}

// TestSearchEvalRemoteFanout proves the cluster hook is consulted per
// point and its outputs feed the frontier: a hook that claims every
// planes=2 point with a fabricated dominating summary must leave its
// IPC on the frontier.
func TestSearchEvalRemoteFanout(t *testing.T) {
	var forwarded atomic.Int64
	cfg := Config{Workers: 2}
	cfg.EvalRemote = func(ctx context.Context, spec JobSpec) (string, bool, error) {
		a, err := search.ParseAssignment(spec.Point)
		if err != nil {
			t.Errorf("EvalRemote got an invalid point: %v", err)
			return "", false, nil
		}
		if a["planes"] != "2" {
			return "", false, nil // not ours: evaluate locally
		}
		forwarded.Add(1)
		b, err := json.MarshalIndent(EvalSummary{
			Point: search.Key(a), Instrs: spec.Instrs,
			IPC: 99, EnergyNJ: 1, AreaPct: 0.5,
		}, "", "  ")
		if err != nil {
			return "", true, err
		}
		return string(b) + "\n", true, nil
	}
	s := newTestServer(t, cfg)
	j, _, err := s.Submit(searchJobSpec(), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 120*time.Second)
	if st := j.State(); st != StateDone {
		t.Fatalf("search job state %s (%s)", st, jobEvents(j))
	}
	if forwarded.Load() == 0 {
		t.Fatal("EvalRemote never handled a point")
	}
	res, err := search.ParseResult([]byte(j.Output()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 || res.Frontier[0].IPC != 99 {
		t.Errorf("forwarded metrics missing from frontier: %+v", res.Frontier)
	}
}

// TestSearchRestartResume kills a daemon mid-search and restarts it:
// the recovered job must resume from the search-state blob (restoring
// its evaluated points instead of starting over) and finish with output
// byte-identical to an uninterrupted run.
func TestSearchRestartResume(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("multi-second simulations")
	}
	dir := t.TempDir()
	spec := JobSpec{
		Kind: "search",
		Search: &search.Spec{
			Dims: []search.DimSpec{
				{Name: "planes", Values: []string{"1", "2"}},
				{Name: "ddb"},
			},
			Seed:         7,
			Instrs:       400_000,
			Rungs:        2,
			RefineRounds: -1,
		},
	}
	s1, err := New(Config{Workers: 1, SimParallel: 1, QueueMax: 16, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	j1, _, err := s1.Submit(spec, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	key := "search|" + j1.Hash
	deadline := time.Now().Add(120 * time.Second)
	for s1.ckpts.Load(key) == nil {
		if time.Now().After(deadline) {
			t.Fatal("no search-state blob appeared")
		}
		if j1.State().Terminal() {
			t.Fatalf("search finished before checkpointing (state %s)", j1.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s1.Drain(expired); err == nil {
		t.Fatal("forced drain reported success")
	}
	if st := j1.State(); st != StateCanceled {
		t.Fatalf("interrupted search state %s, want canceled", st)
	}

	s2 := newTestServer(t, Config{Workers: 1, SimParallel: 1, WALDir: dir})
	j2 := s2.Job(j1.ID)
	if j2 == nil {
		t.Fatal("interrupted search not restored")
	}
	waitJob(t, j2, 300*time.Second)
	if st := j2.State(); st != StateDone {
		t.Fatalf("recovered search state %s, want done (%s)", st, jobEvents(j2))
	}
	if !strings.Contains(jobEvents(j2), "restored") {
		t.Errorf("no restore line in recovered search events:\n%s", jobEvents(j2))
	}

	ref := newTestServer(t, Config{Workers: 1})
	jr, _, err := ref.Submit(spec, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, jr, 300*time.Second)
	if jr.Output() != j2.Output() {
		t.Errorf("resumed search output differs from uninterrupted reference:\n%s\nvs\n%s",
			j2.Output(), jr.Output())
	}
}
