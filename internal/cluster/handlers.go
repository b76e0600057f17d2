package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"eruca/internal/obs"
	"eruca/internal/server"
)

// PeerHandler returns the peer-protocol API, served on cfg.PeerAddr.
// It is cluster-internal: control plane (join/heartbeat/place/leave/
// resolve, coordinator only), the migration entry point, the
// checkpoint-blob replica store, and the result-cache shard lookup.
func (n *Node) PeerHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/join", n.requireCoord(n.handleJoin))
	mux.HandleFunc("POST /v1/cluster/heartbeat", n.requireCoord(n.handleHeartbeat))
	mux.HandleFunc("POST /v1/cluster/place", n.requireCoord(n.handlePlace))
	mux.HandleFunc("POST /v1/cluster/leave", n.requireCoord(n.handleLeave))
	mux.HandleFunc("GET /v1/cluster/resolve", n.requireCoord(n.handleResolve))
	mux.HandleFunc("POST /v1/cluster/migrate", n.handleMigrate)
	mux.HandleFunc("PUT /v1/cluster/ckpt", n.handleCkptPut)
	mux.HandleFunc("GET /v1/cluster/ckpt", n.handleCkptGet)
	mux.HandleFunc("GET /v1/cluster/cache", n.handleCacheGet)
	return mux
}

func (n *Node) requireCoord(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if n.coord == nil {
			http.Error(w, "not the coordinator", http.StatusMisdirectedRequest)
			return
		}
		h(w, r)
	}
}

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Node == "" || req.Addr == "" || req.Peer == "" {
		http.Error(w, "join requires node, addr, peer", http.StatusBadRequest)
		return
	}
	writePeerJSON(w, n.coord.join(req))
}

func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	resp, err := n.coord.heartbeat(req)
	if err != nil {
		// ErrLeaseEvicted: the member's epoch is stale — it was evicted
		// (and its jobs re-homed). 410 tells it to rejoin fresh.
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	writePeerJSON(w, resp)
}

func (n *Node) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req placeRequest
	if !decodeInto(w, r, &req) {
		return
	}
	n.coord.place(req.Node, req.Jobs)
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req leaveRequest
	if !decodeInto(w, r, &req) {
		return
	}
	n.coord.leave(req)
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleResolve(w http.ResponseWriter, r *http.Request) {
	rr, err := n.coord.resolve(r.URL.Query().Get("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writePeerJSON(w, rr)
}

// handleMigrate adopts an evicted node's job: a migrated Submit bypasses
// the admission bound (the cluster already accepted this work) and the
// simulation resumes from the replicated checkpoint via the server's
// read-through loader.
func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req migrateRequest
	if !decodeInto(w, r, &req) {
		return
	}
	j, err := n.submitMigrated(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writePeerJSON(w, migrateResponse{ID: j.ID})
}

func (n *Node) handleCkptPut(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	blob, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := n.srv.CkptSave(key, blob); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleCkptGet(w http.ResponseWriter, r *http.Request) {
	blob := n.srv.CkptLoad(r.URL.Query().Get("key"))
	if blob == nil {
		http.Error(w, "no such checkpoint", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

func (n *Node) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	out, ok := n.srv.CachedResult(r.URL.Query().Get("hash"))
	if !ok {
		http.Error(w, "miss", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, out)
}

func writePeerJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// forwardedHeader marks a request already routed by a peer; the
// receiver accepts it locally instead of re-forwarding, which both
// prevents loops and tolerates transient ring-view disagreement.
const forwardedHeader = "X-Eruca-Forwarded"

// Handler wraps the single-node client API with cluster routing:
//
//   - POST /v1/jobs is placed on the spec hash's ring owner, shedding
//     along the successor list (and finally to this node) when the
//     owner is unreachable;
//   - /v1/jobs/{id}... whose node prefix is not ours is proxied to the
//     owner — through the coordinator's migration alias when the owner
//     was evicted — streaming (SSE passes through, Last-Event-ID
//     preserved);
//   - GET /metrics gains the eruca_cluster_* series;
//   - GET /v1/cluster/info reports role, epoch and membership.
func (n *Node) Handler() http.Handler {
	inner := n.srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/info", n.handleInfo)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// One buffer for every layer, so the exposition comes out in one
		// deterministically sorted pass regardless of which layer owns
		// which family.
		buf := server.NewMetricsBuf()
		n.srv.CollectMetrics(buf)
		n.collectMetrics(buf)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		buf.Write(w)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		n.routeSubmit(w, r, inner)
	})
	mux.HandleFunc("/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		n.routeJob(w, r, inner)
	})
	mux.HandleFunc("/v1/jobs/{id}/{rest...}", func(w http.ResponseWriter, r *http.Request) {
		n.routeJob(w, r, inner)
	})
	mux.Handle("/", inner)
	return mux
}

func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	role := "worker"
	if n.coord != nil {
		role = "coordinator"
	}
	writePeerJSON(w, map[string]any{
		"node":    n.cfg.NodeID,
		"role":    role,
		"epoch":   n.epoch.Load(),
		"members": n.view.Load().members,
	})
}

// routeSubmit implements ring placement for submissions. The body is
// decoded here only to compute the placement hash; the chosen node
// re-validates as usual.
func (n *Node) routeSubmit(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	if r.Header.Get(forwardedHeader) != "" {
		inner.ServeHTTP(w, r) // a peer already placed this here
		return
	}
	var spec server.JobSpec
	if json.Unmarshal(body, &spec) != nil {
		inner.ServeHTTP(w, r) // malformed: let the local API shape the error
		return
	}
	hash := spec.Hash()
	v := n.view.Load()
	owner, ok := v.owner(hash)
	if !ok || owner.ID == n.cfg.NodeID {
		inner.ServeHTTP(w, r)
		return
	}
	// The forward span parents to the client's traceparent (if any) and
	// is injected into whatever the routing decides — the peer POST or
	// the shed-local submission — so the remote admit continues one
	// connected trace.
	fs := n.tracer.Start(obs.Extract(r.Header), obs.KindForward, "forward submit")
	fs.SetAttr("owner", owner.ID)
	defer fs.End()
	// Try the owner, then its successors; every transport failure trips
	// the peer's breaker so later submissions skip it immediately.
	for _, m := range v.successors(hash) {
		if m.ID == n.cfg.NodeID {
			break // reached ourselves in shed order: accept locally
		}
		br := n.breakers.For(m.Addr)
		if !br.Allow() {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), "POST", "http://"+m.Addr+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header = r.Header.Clone()
		req.Header.Set(forwardedHeader, n.cfg.NodeID)
		obs.Inject(req.Header, fs.Context())
		resp, err := n.client.Do(req)
		if err != nil {
			br.Failure()
			n.log().Warn("submit forward failed", "target", m.ID, "err", err)
			continue
		}
		br.Success()
		n.metrics.forwarded.Add(1)
		fs.SetAttr("target", m.ID)
		// Relay whatever the owner said — including 429: the owner's
		// admission decision is authoritative for its shard.
		relay(w, resp)
		return
	}
	n.metrics.shedLocal.Add(1)
	fs.SetAttr("shed", "local")
	obs.Inject(r.Header, fs.Context())
	inner.ServeHTTP(w, r)
}

// routeJob proxies by-ID requests whose node prefix is not ours.
func (n *Node) routeJob(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	id := r.PathValue("id")
	owner := nodeOf(id)
	if owner == "" || owner == n.cfg.NodeID || r.Header.Get(forwardedHeader) != "" {
		inner.ServeHTTP(w, r)
		return
	}
	if m, ok := n.view.Load().member(owner); ok {
		if n.proxyTo(w, r, m.Addr, id, id) {
			return
		}
	}
	// Owner unknown or unreachable — likely evicted. The coordinator's
	// alias table knows where the job went.
	rr, err := n.resolveRemote(r.Context(), id)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("job %s temporarily unroutable: %v", id, err), http.StatusServiceUnavailable)
		return
	}
	if nodeOf(rr.ID) == n.cfg.NodeID {
		// Migrated to us: rewrite the path and serve locally.
		r.URL.Path = strings.Replace(r.URL.Path, id, rr.ID, 1)
		r.SetPathValue("id", rr.ID)
		inner.ServeHTTP(w, r)
		return
	}
	if n.proxyTo(w, r, rr.Addr, id, rr.ID) {
		return
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, fmt.Sprintf("job %s owner %s unreachable", id, rr.Addr), http.StatusServiceUnavailable)
}

// nodeOf extracts the node prefix from a cluster job ID
// ("n2-job-000017" -> "n2"); empty when the ID carries none.
func nodeOf(id string) string {
	if i := strings.Index(id, "-job-"); i > 0 {
		return id[:i]
	}
	return ""
}

// proxyTo streams r to addr with oldID rewritten to newID, relaying
// the response as it arrives (SSE framing and Last-Event-ID survive
// because headers are cloned and the body is flushed per chunk).
// Returns false on transport failure so the caller can re-resolve.
func (n *Node) proxyTo(w http.ResponseWriter, r *http.Request, addr, oldID, newID string) bool {
	br := n.breakers.For(addr)
	if !br.Allow() {
		return false
	}
	u := "http://" + addr + strings.Replace(r.URL.Path, oldID, newID, 1)
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, r.Body)
	if err != nil {
		return false
	}
	req.Header = r.Header.Clone()
	req.Header.Set(forwardedHeader, n.cfg.NodeID)
	ps := n.tracer.Start(obs.Extract(r.Header), obs.KindProxy, "proxy")
	ps.SetJob(newID)
	ps.SetAttr("addr", addr)
	obs.Inject(req.Header, ps.Context())
	// The proxy client has no overall timeout: SSE streams live as long
	// as the client holds the connection (the request context cancels
	// the upstream call when the client goes away).
	resp, err := n.proxyClient().Do(req)
	if err != nil {
		ps.SetError(err)
		ps.End()
		br.Failure()
		n.log().Warn("proxy failed", "job_id", oldID, "addr", addr, "err", err)
		return false
	}
	br.Success()
	n.metrics.proxied.Add(1)
	relay(w, resp)
	ps.End()
	return true
}

// relay copies an upstream response to the client, flushing per chunk
// so streamed bodies (SSE) pass through live.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		nr, err := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
