package server

import (
	"context"
	"encoding/json"
	"fmt"

	"eruca/internal/obs"
	"eruca/internal/search"
	"eruca/internal/workload"
)

// This file runs "search" jobs: the internal/search autotuner engine,
// wired so every design-point evaluation it requests becomes an "eval"
// JobSpec served by the daemon's own machinery — the content-addressed
// result cache first, then the cluster (sharded-cache read-through and
// the EvalRemote fan-out hook), then a local shared singleflight
// runner. Engine state checkpoints into the WAL blob store under
// "search|<job hash>", so a daemon restart resumes a half-finished
// search from its evaluated set instead of re-simulating it, and the
// incumbent Pareto frontier streams over the job's SSE feed as it
// tightens.

// evalSpec builds the "eval" JobSpec for one canonical point at one
// instruction budget. Workload identity (mix, frag, bus) comes from the
// search spec; simulation robustness knobs and the simulation seed come
// from the enclosing search job, so a search under fault injection
// evaluates its points under the same faults.
func evalSpec(base JobSpec, sspec search.Spec, point map[string]string, instrs int64) JobSpec {
	return JobSpec{
		Kind:     "eval",
		Point:    point,
		Mix:      sspec.Mix,
		Frag:     sspec.Frag,
		BusMHz:   sspec.BusMHz,
		Instrs:   instrs,
		Seed:     base.Seed,
		Check:    base.Check,
		Watchdog: base.Watchdog,
		Latency:  base.Latency,
		Faults:   base.Faults,
	}
}

// searchEval adapts the server's eval-job path to search.Evaluator.
type searchEval struct {
	s    *Server
	job  *Job
	base JobSpec     // normalized enclosing search job
	spec search.Spec // normalized search spec
}

func (e *searchEval) Eval(ctx context.Context, key string, a map[string]string, instrs int64) (search.Metrics, error) {
	e.s.metrics.searchPoints.Add(1)
	out, err := e.s.evalPoint(ctx, e.job, evalSpec(e.base, e.spec, a, instrs))
	if err != nil {
		return search.Metrics{}, err
	}
	var sum EvalSummary
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		return search.Metrics{}, fmt.Errorf("server: eval result for %s unparsable: %w", key, err)
	}
	return search.Metrics{IPC: sum.IPC, EnergyNJ: sum.EnergyNJ, AreaPct: sum.AreaPct}, nil
}

// evalPoint resolves one eval spec to its output, cheapest source
// first: local result cache, cluster cache shard, cluster fan-out
// (EvalRemote), local execution. It never goes through the job queue —
// the search already holds a worker slot, and queueing child jobs
// behind their own parent would deadlock a full worker pool. Like a
// queued job it holds its runner group from before the cache lookup
// until the output is cached, so a concurrent sweep, sim job or
// evaluation asking for the same simulation joins rather than re-runs
// it.
func (s *Server) evalPoint(ctx context.Context, job *Job, spec JobSpec) (string, error) {
	runner, release, err := s.acquireRunner(spec)
	if err != nil {
		return "", err
	}
	defer release()
	hash := spec.Hash()
	if e, ok := s.cache.Get(hash); ok {
		s.metrics.searchCacheHits.Add(1)
		return e.Output, nil
	}
	if s.cfg.CacheFetch != nil {
		if out, ok := s.cfg.CacheFetch(hash); ok {
			s.cache.Put(cacheEntry{Hash: hash, Kind: "eval", Output: out})
			s.metrics.remoteCacheHits.Add(1)
			s.metrics.searchCacheHits.Add(1)
			return out, nil
		}
	}
	if s.cfg.EvalRemote != nil {
		out, handled, err := s.cfg.EvalRemote(ctx, spec)
		if handled {
			if err != nil {
				return "", err
			}
			s.cache.Put(cacheEntry{Hash: hash, Kind: "eval", Output: out})
			return out, nil
		}
	}
	view := runner.WithContext(ctx).WithLog(job.events.Append).WithTelemetry(job.tel)
	if s.ckpts != nil {
		view = view.WithCheckpoint(s.checkpointPolicy(job, obs.FromContext(ctx)))
	}
	out, err := execute(ctx, view, spec)
	if err != nil {
		return "", err
	}
	s.cache.Put(cacheEntry{Hash: hash, Kind: "eval", Output: out})
	return out, nil
}

// runSearch executes one "search" job to completion and returns the
// canonical Result JSON (which the content-addressed cache may then
// serve to identical resubmissions: the engine is deterministic in the
// spec, so the cached output is the re-run's output). ctx is the job
// context, optionally carrying the run span so cluster eval fan-out
// hops join the job's trace.
func (s *Server) runSearch(ctx context.Context, job *Job) (string, error) {
	n := job.Spec.normalized()
	if n.Search == nil {
		return "", fmt.Errorf("server: search job missing the \"search\" spec")
	}
	sspec := n.Search.Normalize()
	if _, err := workload.MixByName(sspec.Mix); err != nil {
		return "", err
	}
	opts := search.Options{
		Eval:     &searchEval{s: s, job: job, base: n, spec: sspec},
		Parallel: s.cfg.SimParallel,
		Log:      job.events.Append,
	}

	// Progress: the SSE feed carries every incumbent-frontier change as
	// one "frontier ..." line (canonical JSON, so clients can parse it),
	// and the Prometheus counters advance by deltas — Progress reports
	// per-run cumulative numbers, the metrics are daemon-lifetime.
	var lastFrontier string
	var lastHits int64
	opts.OnProgress = func(p search.Progress) {
		s.metrics.searchFrontier.Store(int64(p.FrontierSize))
		if d := p.CacheHits - lastHits; d > 0 {
			lastHits = p.CacheHits
			s.metrics.searchCacheHits.Add(d)
		}
		b, err := json.Marshal(p.Frontier)
		if err != nil {
			return
		}
		if string(b) != lastFrontier {
			lastFrontier = string(b)
			job.events.Append(fmt.Sprintf("frontier (%s, %d evaluated, size %d) %s",
				p.Stage, p.Evaluated, p.FrontierSize, b))
		}
	}

	// Durability: engine snapshots land in the checkpoint blob store
	// keyed by the job's content hash, so a restarted daemon's recovered
	// job (same spec, same hash) resumes from the evaluated set, and an
	// evicted node's search migrates with its progress via the usual
	// replicate/fetch pair. The blob itself is spec-hash-guarded, so a
	// stale or foreign blob degrades to a fresh start, never a wrong
	// result.
	if s.ckpts != nil {
		key := "search|" + job.Hash
		opts.Checkpoint = &search.Checkpoint{
			Load: func() []byte {
				if b := s.ckpts.Load(key); b != nil {
					return b
				}
				if s.cfg.CkptFetch == nil {
					return nil
				}
				b := s.cfg.CkptFetch(key)
				if b != nil {
					job.events.Append(fmt.Sprintf("search state for %.12s fetched from cluster", job.Hash))
					if err := s.ckpts.Save(key, b); err != nil {
						s.cfg.Log.Error("search state adopt failed", "job_id", job.ID, "key", key, "err", err)
					}
				}
				return b
			},
			Save: func(blob []byte) {
				cs := s.tracer().Start(obs.FromContext(ctx), obs.KindCheckpointSave, "search checkpoint")
				cs.SetJob(job.ID)
				cs.SetAttr("key", key)
				if err := s.ckpts.Save(key, blob); err != nil {
					cs.SetError(err)
					cs.End()
					s.cfg.Log.Error("search state save failed", "job_id", job.ID, "key", key, "err", err)
					return
				}
				_ = s.journalAppend(walRecord{Type: "checkpoint", Job: job.ID, Key: key})
				if s.cfg.CkptReplicate != nil {
					s.cfg.CkptReplicate(key, blob, cs.Context())
				}
				cs.End()
			},
		}
	}

	res, err := search.Run(ctx, sspec, opts)
	if err != nil {
		return "", err
	}
	return string(res.JSON()), nil
}
