package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"eruca/internal/obs"
	"eruca/internal/server"
)

// This file is the search fan-out: one node runs a "search" job (placed
// there by the usual ring routing of its spec hash), and every "eval"
// the engine requests is routed by ITS spec hash to the point's ring
// owner — so a single search spreads its simulations across the whole
// cluster, each point lands where its cached result (if any) already
// lives, and two searches exploring overlapping spaces dedup on the
// same owners. The hook is installed as server.Config.EvalRemote.

// evalPollInterval paces result polling for forwarded evals. Eval jobs
// are short (rung budgets start at 1000 instructions), so the first
// polls come quickly; the interval backs off to cap chatter on the
// full-budget rungs.
const (
	evalPollInterval = 25 * time.Millisecond
	evalPollMax      = 500 * time.Millisecond
)

// evalRemote implements server.Config.EvalRemote. handled=false — "run
// it locally" — covers every non-deterministic obstacle: not joined
// yet, we own the point, the owner is unreachable or draining, or the
// remote job was canceled. Only a remote result (or a remote
// deterministic failure) is surfaced, because the search engine records
// whatever this returns as the point's permanent outcome.
func (n *Node) evalRemote(ctx context.Context, spec server.JobSpec) (string, bool, error) {
	if !n.joined.Load() {
		return "", false, nil
	}
	hash := spec.Hash()
	owner, ok := n.view.Load().owner(hash)
	if !ok || owner.ID == n.cfg.NodeID {
		return "", false, nil
	}
	br := n.breakers.For(owner.Addr)
	if !br.Allow() {
		return "", false, nil
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return "", false, nil
	}
	req, err := http.NewRequestWithContext(ctx, "POST", "http://"+owner.Addr+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", false, nil
	}
	// The fan-out span parents to the search's run span (carried on ctx)
	// and is injected into the owner's submission, so the remote eval's
	// admit/run spans join the search job's trace.
	fs := n.tracer.Start(obs.FromContext(ctx), obs.KindEvalFanout, "eval fan-out")
	fs.SetAttr("owner", owner.ID)
	defer fs.End()
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, n.cfg.NodeID)
	obs.Inject(req.Header, fs.Context())
	// Content-derived idempotency: concurrent searches (or a retry after
	// a lost response) asking the owner for the same point share one job.
	req.Header.Set("Idempotency-Key", "eval-"+hash)
	resp, err := n.client.Do(req)
	if err != nil {
		fs.SetError(err)
		br.Failure()
		return "", false, nil
	}
	v, err := decodeView(resp)
	if err != nil {
		// 429/503 included: the owner is loaded or draining — evaluate
		// locally rather than camp on its queue.
		return "", false, nil
	}
	br.Success()
	n.metrics.evalsForwarded.Add(1)

	interval := evalPollInterval
	for {
		switch v.State {
		case server.StateDone:
			return v.Result, true, nil
		case server.StateFailed:
			// A deterministic simulation failure: the same point would
			// fail here too, so let the engine record it.
			msg := "remote eval failed"
			if v.Error != nil {
				msg = v.Error.Message
			}
			err := errors.New(msg)
			fs.SetError(err)
			return "", true, err
		case server.StateCanceled:
			return "", false, nil // remote drain/cancel: not our outcome
		}
		select {
		case <-ctx.Done():
			return "", false, ctx.Err()
		case <-time.After(interval):
		}
		if interval *= 2; interval > evalPollMax {
			interval = evalPollMax
		}
		v, err = n.fetchEvalView(ctx, owner.Addr, v.ID)
		if err != nil {
			if ctx.Err() != nil {
				return "", false, ctx.Err()
			}
			br.Failure()
			// The owner died mid-eval. Fall back to a local run: the
			// result is deterministic either way, we just lose the dedup.
			return "", false, nil
		}
	}
}

// evalView is the subset of the server's job view the fan-out reads.
type evalView struct {
	ID     string       `json:"id"`
	State  server.State `json:"state"`
	Result string       `json:"result,omitempty"`
	Error  *struct {
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

func decodeView(resp *http.Response) (evalView, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return evalView{}, fmt.Errorf("cluster: eval submit status %d", resp.StatusCode)
	}
	var v evalView
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&v); err != nil {
		return evalView{}, err
	}
	return v, nil
}

// fetchEvalView polls one forwarded eval job by ID.
func (n *Node) fetchEvalView(ctx context.Context, addr, id string) (evalView, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/v1/jobs/"+id, nil)
	if err != nil {
		return evalView{}, err
	}
	req.Header.Set(forwardedHeader, n.cfg.NodeID)
	resp, err := n.client.Do(req)
	if err != nil {
		return evalView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return evalView{}, fmt.Errorf("cluster: eval poll status %d", resp.StatusCode)
	}
	var v evalView
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&v); err != nil {
		return evalView{}, err
	}
	return v, nil
}
