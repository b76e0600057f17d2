// Package cluster turns a set of erucad daemons into one fault-tolerant
// simulation service. The topology is coordinator/worker: every node
// runs the full single-node stack (queue, workers, WAL, caches) from
// internal/server, and the cluster layer adds
//
//   - placement: submissions are routed by spec content hash over a
//     consistent-hash ring, part of each node's immutable membership
//     view, so duplicate submissions land on the same node and collapse
//     in its singleflight runner — cluster-wide dedup out of the
//     single-node mechanism;
//   - a sharded result cache: each node's content-addressed cache holds
//     its ring shard, with read-through to the hash's owner on miss;
//   - leases: workers prove liveness by heartbeat; a member that misses
//     its lease deadline is evicted and its in-flight jobs re-enqueued
//     on survivors, resuming from the checkpoint blobs it replicated to
//     the coordinator (the PR 5 snapshot store as migration format);
//   - durability: the coordinator journals membership, placements and
//     migrations in its WAL, so a coordinator restart reconstructs the
//     cluster exactly like the job layer replays its queue.
//
// Inter-node calls go through internal/retry: exponential backoff with
// jitter honoring Retry-After, and a per-peer circuit breaker so a dead
// member costs one connect timeout, not one per request, before traffic
// sheds to the next ring member.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eruca/internal/chaosnet"
	"eruca/internal/obs"
	"eruca/internal/retry"
	"eruca/internal/server"
)

// Config describes one cluster member.
type Config struct {
	// NodeID names this member ("n1"); it prefixes job IDs so any peer
	// can route an ID back to its owner. Required.
	NodeID string
	// PublicAddr is the advertised client API address (host:port).
	PublicAddr string
	// PeerAddr is the advertised peer-protocol address (host:port); the
	// caller serves PeerHandler() there.
	PeerAddr string
	// JoinURL is the coordinator's peer base URL ("http://host:port").
	// Empty makes this node the coordinator (it also works jobs,
	// registering itself as member zero).
	JoinURL string
	// LeaseTTL is the heartbeat lease duration (default 3s); heartbeats
	// fire every TTL/4, and a member that misses its deadline is
	// evicted with its jobs re-enqueued on survivors.
	LeaseTTL time.Duration
	// Log receives structured cluster lifecycle records (default:
	// discard). Every record carries node=<NodeID>.
	Log *slog.Logger
	// Chaos, when non-nil, injects deterministic network faults into
	// every outbound peer call (and, via Mesh.Listener at the serving
	// side, inbound connections). Nil leaves the peer hot path
	// untouched — the wrappers are pointer-identity no-ops.
	Chaos *chaosnet.Mesh
}

// Node is one cluster member wrapping a server.Server.
type Node struct {
	cfg    Config
	srv    *server.Server
	tracer *obs.Tracer // the server's tracer (nil when tracing is off)

	// view is the current membership: the coordinator publishes it from
	// its lease table, a worker from each join and heartbeat response.
	view atomic.Pointer[view]

	coord *coordinator // non-nil on the coordinator

	client   *http.Client // peer calls; deadlines come per-request from the lease TTL
	proxy    *http.Client // by-ID proxying; no overall deadline (streaming bodies)
	breakers retry.Breakers
	metrics  clusterMetrics

	epoch  atomic.Int64
	joined atomic.Bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// clusterMetrics are the cluster-layer counters and the span-derived
// hop-latency histograms, exposed on /metrics.
type clusterMetrics struct {
	forwarded      atomic.Int64
	evalsForwarded atomic.Int64
	proxied        atomic.Int64
	shedLocal      atomic.Int64
	heartbeats     atomic.Int64
	rejoins        atomic.Int64
	jobsMigrated   atomic.Int64
	nodesEvicted   atomic.Int64
	fenced         atomic.Int64

	// hops holds one histogram per inter-node span kind, all exposed
	// under the single family eruca_cluster_hop_seconds{kind=...}. Fed
	// by the tracer's Observe hook on span closure; empty when tracing
	// is off.
	hops map[obs.Kind]*server.SecondsHist
}

// hopKinds are the span kinds that count as inter-node hops.
var hopKinds = []obs.Kind{obs.KindForward, obs.KindProxy, obs.KindMigrate, obs.KindEvalFanout, obs.KindCheckpointReplicate}

func (cm *clusterMetrics) initHops() {
	cm.hops = make(map[obs.Kind]*server.SecondsHist, len(hopKinds))
	for _, k := range hopKinds {
		cm.hops[k] = server.NewSecondsHist(spanHopBounds()...)
	}
}

// spanHopBounds mirror the server's span-latency buckets.
func spanHopBounds() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// observeSpan is the tracer Observe hook: closures of hop-kind spans
// drive the eruca_cluster_hop_seconds family.
func (cm *clusterMetrics) observeSpan(sp obs.Span) {
	if h := cm.hops[sp.Kind]; h != nil {
		h.Observe(sp.Duration().Seconds())
	}
}

// collectHops renders the shared hop family in deterministic kind order.
func (cm *clusterMetrics) collectHops(buf *server.MetricsBuf) {
	kinds := make([]string, 0, len(cm.hops))
	for k := range cm.hops {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		cm.hops[obs.Kind(k)].Collect(buf, "eruca_cluster_hop_seconds",
			"Inter-node hop latency from span closure, by span kind.", fmt.Sprintf("kind=%q", k))
	}
}

// New wires a cluster member around a server built from scfg: the
// returned Node owns the server (Server() exposes it), with the
// cluster's cache/checkpoint read-through, checkpoint replication,
// placement notification, and WAL-snapshot hooks installed before the
// server boots.
func New(cfg Config, scfg server.Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: NodeID required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard()
	}
	cfg.Log = cfg.Log.With("node", cfg.NodeID)
	n := &Node{
		cfg:    cfg,
		tracer: scfg.Tracer,
		client: peerClient(cfg, false),
		proxy:  peerClient(cfg, true),
		stop:   make(chan struct{}),
	}
	n.view.Store(newView(nil))
	cfg.Chaos.Bind(cfg.NodeID, cfg.PublicAddr, cfg.PeerAddr)
	n.breakers.Threshold = 3
	n.breakers.Cooldown = cfg.LeaseTTL
	n.metrics.initHops()
	n.tracer.Observe(n.metrics.observeSpan)

	scfg.NodeID = cfg.NodeID
	scfg.CacheFetch = n.cacheFetch
	scfg.CkptFetch = n.ckptFetch
	scfg.CkptReplicate = n.ckptReplicate
	scfg.OnAdmit = n.onAdmit
	scfg.EvalRemote = n.evalRemote
	if cfg.JoinURL == "" {
		scfg.ClusterSnapshot = func() []server.ClusterRecord {
			if n.coord == nil {
				return nil
			}
			return n.coord.snapshot()
		}
	}
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	if cfg.JoinURL == "" {
		n.coord = newCoordinator(n)
		n.coord.restore(srv.ClusterReplay())
	}
	return n, nil
}

// peerClient builds one of the node's two HTTP clients. Transport-level
// guards (dial, TLS-handshake, and response-header deadlines derived
// from the lease TTL) replace the old flat 15s client timeout; neither
// client carries an overall timeout — control/data calls get theirs
// per-request from ctlCtx/callCtx/blobCtx, and the streaming proxy's
// response bodies are deliberately exempt (a proxied SSE stream lives
// as long as the downstream client holds the connection). The two
// clients exist so they pool connections separately: a peer stalling
// long-lived streams cannot starve the control plane's sockets. Chaos,
// when configured, wraps the transport; nil chaos returns the base
// transport pointer-identical, keeping the hot path untouched.
func peerClient(cfg Config, streaming bool) *http.Client {
	dial := clampDur(cfg.LeaseTTL, 500*time.Millisecond, 5*time.Second)
	headers := clampDur(2*cfg.LeaseTTL, time.Second, 15*time.Second)
	if streaming {
		// A proxied request's first byte may wait on queue pressure at
		// the owner; give headers a little more room than peer calls.
		headers = clampDur(4*cfg.LeaseTTL, 2*time.Second, 30*time.Second)
	}
	base := &http.Transport{
		DialContext:           (&net.Dialer{Timeout: dial}).DialContext,
		TLSHandshakeTimeout:   dial,
		ResponseHeaderTimeout: headers,
		MaxIdleConnsPerHost:   4,
	}
	return &http.Client{Transport: cfg.Chaos.Transport(cfg.NodeID, base)}
}

// clampDur clamps d into [lo, hi].
func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// ctlCtx bounds one control-plane call (join, heartbeat, leave, place):
// half a lease TTL — a heartbeat that cannot complete inside its own
// renewal interval is better failed fast and retried than left hanging
// past the lease it was supposed to renew.
func (n *Node) ctlCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(),
		clampDur(n.cfg.LeaseTTL/2, 250*time.Millisecond, 5*time.Second))
}

// callCtx bounds one data-plane call (migrate, resolve, cache fetch),
// layered over the caller's context when there is one.
func (n *Node) callCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	return context.WithTimeout(parent,
		clampDur(n.cfg.LeaseTTL, 500*time.Millisecond, 10*time.Second))
}

// blobCtx bounds one checkpoint-blob transfer: proportionally larger
// than control calls — blobs are orders of magnitude bigger than a
// heartbeat body.
func (n *Node) blobCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(),
		clampDur(4*n.cfg.LeaseTTL, 2*time.Second, 60*time.Second))
}

// postJSON issues a ctx-bounded JSON POST through the peer client.
func (n *Node) postJSON(ctx context.Context, url string, v any) (*http.Response, error) {
	body, _ := json.Marshal(v)
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return n.client.Do(req)
}

// Server exposes the wrapped single-node server (for Start/Drain).
func (n *Node) Server() *server.Server { return n.srv }

// IsCoordinator reports this member's role.
func (n *Node) IsCoordinator() bool { return n.coord != nil }

func (n *Node) log() *slog.Logger { return n.cfg.Log }

// Start launches the cluster loops: the coordinator self-joins and
// sweeps leases; workers join (retrying until the coordinator answers)
// and heartbeat. Call after Server().Start().
func (n *Node) Start() {
	if n.coord != nil {
		// The coordinator is also a worker: it occupies ring shards and
		// heartbeats itself through direct calls (no HTTP loopback).
		resp := n.coord.join(joinRequest{Node: n.cfg.NodeID, Addr: n.cfg.PublicAddr, Peer: n.cfg.PeerAddr})
		n.epoch.Store(resp.Epoch)
		n.joined.Store(true)
		n.wg.Add(1)
		go n.coordinatorLoop()
	}
	n.wg.Add(1)
	go n.heartbeatLoop()
}

// Stop ends the loops and, on a worker, announces a graceful leave so
// the coordinator reclaims the shard without waiting out the lease.
func (n *Node) Stop() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.wg.Wait()
	if n.coord == nil && n.joined.Load() {
		ctx, cancel := n.ctlCtx()
		defer cancel()
		if resp, err := n.postJSON(ctx, n.cfg.JoinURL+"/v1/cluster/leave",
			leaveRequest{Node: n.cfg.NodeID, Epoch: n.epoch.Load()}); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

// coordinatorLoop sweeps expired leases every TTL/4.
func (n *Node) coordinatorLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			n.coord.sweep()
		case <-n.stop:
			return
		}
	}
}

// heartbeatLoop renews this member's lease every TTL/4; on a worker
// each renewal also refreshes the membership view. A worker that has
// not joined yet (or was evicted — lease epoch rejected) joins first.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	interval := n.cfg.LeaseTTL / 4
	backoff := retry.Backoff{Base: interval / 2, Max: n.cfg.LeaseTTL}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-n.stop:
			return
		}
		if n.coord != nil {
			// Local coordinator: renew + reconcile directly. Its view
			// already tracks the lease table.
			_, _ = n.coord.heartbeat(heartbeatRequest{Node: n.cfg.NodeID, Epoch: n.epoch.Load(), Jobs: n.jobReports()})
			continue
		}
		if !n.joined.Load() {
			if err := n.join(); err != nil {
				n.log().Warn("cluster join failed", "err", err)
				select {
				case <-time.After(backoff.Next(0)):
				case <-n.stop:
					return
				}
			} else {
				backoff.Reset()
			}
			continue
		}
		if err := n.sendHeartbeat(); err != nil {
			n.log().Warn("cluster heartbeat failed", "epoch", n.epoch.Load(), "err", err)
			if err == errEvicted {
				// The coordinator dropped us (partition healed after our
				// lease expired): rejoin under a fresh epoch. Our jobs may
				// already be re-homed; idempotency keys make the overlap
				// harmless.
				n.joined.Store(false)
				n.metrics.rejoins.Add(1)
			}
		}
	}
}

// errEvicted mirrors the coordinator's 410 on a stale-epoch heartbeat.
var errEvicted = fmt.Errorf("cluster: evicted (stale epoch)")

// join registers with the coordinator.
func (n *Node) join() error {
	ctx, cancel := n.ctlCtx()
	defer cancel()
	resp, err := n.postJSON(ctx, n.cfg.JoinURL+"/v1/cluster/join",
		joinRequest{Node: n.cfg.NodeID, Addr: n.cfg.PublicAddr, Peer: n.cfg.PeerAddr})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("join: status %d: %.200s", resp.StatusCode, b)
	}
	var jr joinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return err
	}
	n.epoch.Store(jr.Epoch)
	n.setView(jr.Members)
	n.joined.Store(true)
	n.log().Info("cluster joined", "coordinator", n.cfg.JoinURL, "epoch", jr.Epoch, "members", len(jr.Members))
	return nil
}

// sendHeartbeat renews the worker's lease, reporting non-terminal jobs.
func (n *Node) sendHeartbeat() error {
	// ctlCtx keeps the deadline well inside the lease: a heartbeat stuck
	// on a dead TCP peer must fail (and be retried by the loop) before
	// the lease it renews can expire under it.
	ctx, cancel := n.ctlCtx()
	defer cancel()
	resp, err := n.postJSON(ctx, n.cfg.JoinURL+"/v1/cluster/heartbeat",
		heartbeatRequest{Node: n.cfg.NodeID, Epoch: n.epoch.Load(), Jobs: n.jobReports()})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var hr heartbeatResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			return err
		}
		n.setView(hr.Members)
		return nil
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return errEvicted
	default:
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("heartbeat: status %d: %.200s", resp.StatusCode, b)
	}
}

// jobReports renders this node's non-terminal jobs for the coordinator.
func (n *Node) jobReports() []jobReport {
	var out []jobReport
	for _, j := range n.srv.Jobs() {
		if j.State().Terminal() {
			continue
		}
		out = append(out, jobReport{ID: j.ID, Hash: j.Hash, Idem: j.IdemKey(), Spec: j.Spec,
			Traceparent: j.TraceContext().Traceparent()})
	}
	return out
}

// setView publishes the membership view of a member list.
func (n *Node) setView(ms []Member) {
	for _, m := range ms {
		// Teach the chaos mesh which addresses belong to which node so
		// named partitions ("partition@2s:w2|c") sever the right calls.
		n.cfg.Chaos.Bind(m.ID, m.Addr, m.Peer)
	}
	n.view.Store(newView(ms))
}

// onAdmit eagerly tells the coordinator where an accepted job lives.
// Heartbeats would carry it within TTL/4 anyway; the eager notify
// narrows the window in which a crash strands a freshly accepted job
// to the in-flight HTTP call.
func (n *Node) onAdmit(j *server.Job) {
	report := []jobReport{{ID: j.ID, Hash: j.Hash, Idem: j.IdemKey(), Spec: j.Spec,
		Traceparent: j.TraceContext().Traceparent()}}
	if n.coord != nil {
		n.coord.place(n.cfg.NodeID, report)
		return
	}
	go func() {
		ctx, cancel := n.ctlCtx()
		defer cancel()
		resp, err := n.postJSON(ctx, n.cfg.JoinURL+"/v1/cluster/place",
			placeRequest{Node: n.cfg.NodeID, Jobs: report})
		if err != nil {
			return // best-effort; the next heartbeat carries it
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
}

// sendMigrate asks target to adopt one evicted job; self-targets
// short-circuit to the local server.
func (n *Node) sendMigrate(target Member, req migrateRequest) (newID string, err error) {
	if target.ID == n.cfg.NodeID {
		j, err := n.submitMigrated(req)
		if err != nil {
			return "", err
		}
		return j.ID, nil
	}
	br := n.breakers.For(target.Peer)
	if !br.Allow() {
		return "", fmt.Errorf("cluster: breaker open for %s", target.ID)
	}
	ctx, cancel := n.callCtx(nil)
	defer cancel()
	resp, err := n.postJSON(ctx, "http://"+target.Peer+"/v1/cluster/migrate", req)
	if err != nil {
		br.Failure()
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		br.Failure()
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("migrate: status %d: %.200s", resp.StatusCode, b)
	}
	br.Success()
	var mr migrateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return "", err
	}
	return mr.ID, nil
}

// submitMigrated admits one evicted job on this node, past its queue
// bound: the cluster already acknowledged this work.
func (n *Node) submitMigrated(req migrateRequest) (*server.Job, error) {
	j, _, err := n.srv.Submit(req.Spec, server.SubmitOpts{IdemKey: req.Idem,
		Parent: obs.ParseTraceparent(req.Traceparent), From: req.From})
	return j, err
}

// cacheFetch is the sharded result cache's read-through: on a local
// miss, ask the hash's ring owner.
func (n *Node) cacheFetch(hash string) (string, bool) {
	owner, ok := n.view.Load().owner(hash)
	if !ok || owner.ID == n.cfg.NodeID {
		return "", false
	}
	br := n.breakers.For(owner.Peer)
	if !br.Allow() {
		return "", false
	}
	ctx, cancel := n.callCtx(nil)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		"http://"+owner.Peer+"/v1/cluster/cache?hash="+url.QueryEscape(hash), nil)
	if err != nil {
		return "", false
	}
	resp, err := n.client.Do(req)
	if err != nil {
		br.Failure()
		return "", false
	}
	defer resp.Body.Close()
	br.Success()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", false
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false
	}
	return string(b), true
}

// ckptReplicate pushes a freshly saved checkpoint blob to the
// coordinator, asynchronously and best-effort — replication is an
// optimization of recovery time, never a correctness requirement (a
// missing blob just means the migrated job restarts from cycle zero).
// parent is the checkpoint_save span, so the replication hop stays on
// the job's trace even though it outlives the save call.
func (n *Node) ckptReplicate(key string, blob []byte, parent obs.SpanContext) {
	if n.coord != nil {
		return // the coordinator's local store IS the replica target
	}
	buf := append([]byte(nil), blob...)
	go func() {
		sp := n.tracer.Start(parent, obs.KindCheckpointReplicate, "replicate checkpoint")
		sp.SetAttr("key", key)
		defer sp.End()
		ctx, cancel := n.blobCtx()
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, "PUT",
			n.cfg.JoinURL+"/v1/cluster/ckpt?key="+url.QueryEscape(key), bytes.NewReader(buf))
		if err != nil {
			sp.SetError(err)
			return
		}
		obs.Inject(req.Header, sp.Context())
		resp, err := n.client.Do(req)
		if err != nil {
			sp.SetError(err)
			n.log().Warn("checkpoint replication failed", "key", key, "err", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
}

// ckptFetch pulls a checkpoint blob from the coordinator — the
// migration read path on a survivor that never ran this simulation.
func (n *Node) ckptFetch(key string) []byte {
	if n.coord != nil {
		return nil // coordinator already consulted its local store
	}
	ctx, cancel := n.blobCtx()
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		n.cfg.JoinURL+"/v1/cluster/ckpt?key="+url.QueryEscape(key), nil)
	if err != nil {
		return nil
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	return b
}

// resolveRemote asks the coordinator where a job ID lives now.
func (n *Node) resolveRemote(ctx context.Context, id string) (resolveResponse, error) {
	if n.coord != nil {
		return n.coord.resolve(id)
	}
	ctx, cancel := n.callCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", n.cfg.JoinURL+"/v1/cluster/resolve?id="+url.QueryEscape(id), nil)
	if err != nil {
		return resolveResponse{}, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return resolveResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return resolveResponse{}, fmt.Errorf("resolve %s: status %d: %.200s", id, resp.StatusCode, b)
	}
	var rr resolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return resolveResponse{}, err
	}
	return rr, nil
}
