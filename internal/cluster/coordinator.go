package cluster

import (
	"fmt"
	"sync"

	"eruca/internal/obs"
	"eruca/internal/server"
)

// coordinator is the cluster's control plane, embedded in exactly one
// node. It grants and sweeps heartbeat leases (the lease table is the
// membership every node's view is built from), tracks where every
// non-terminal job lives (placements), and — the robustness headline —
// re-enqueues a dead member's jobs on survivors, pointing them at the
// checkpoint blobs the member replicated before dying. Every state
// change is journaled through the host server's WAL, so a coordinator
// restart reconstructs membership, placements, and migration aliases
// the same way the job layer replays its queue.
type coordinator struct {
	node   *Node
	leases *leaseTable

	mu         sync.Mutex
	placements map[string]*placement // cluster job ID -> where it lives
	// pending are evicted-node jobs whose migration has not landed on a
	// survivor yet (all candidates down or draining); retried each
	// sweep tick until they stick.
	pending []*placement
}

// placement is the coordinator's knowledge of one job.
type placement struct {
	Job   string // job ID on its (original) owner
	Node  string
	Hash  string
	Idem  string
	Spec  server.JobSpec
	Trace string // the job's traceparent, for migration continuity
	Done  bool
	// Migration alias: after eviction, the job continues as NewID on
	// NewNode. Proxies resolve the old ID through this.
	NewNode string
	NewID   string
}

func newCoordinator(n *Node) *coordinator {
	c := &coordinator{
		node:       n,
		leases:     newLeaseTable(n.cfg.LeaseTTL),
		placements: make(map[string]*placement),
	}
	// The coordinator's own view is rebuilt inside every lease-table
	// change (join, evict, leave, journal restore), never on a timer.
	c.leases.publish = n.setView
	return c
}

// restore folds the journal's cluster records back into membership and
// placement state. Members come back with a full fresh lease: a live
// node will renew within one TTL, a node that died while the
// coordinator was down will miss it and be evicted through the normal
// sweep — no special recovery path.
func (c *coordinator) restore(recs []server.ClusterRecord) {
	for _, rec := range recs {
		switch rec.Kind {
		case "join":
			c.leases.Join(rec.Node, rec.Addr, rec.Peer)
		case "evict":
			c.leases.Drop(rec.Node)
		case "place":
			if rec.Spec == nil {
				continue
			}
			c.mu.Lock()
			c.placements[rec.Job] = &placement{Job: rec.Job, Node: rec.Node,
				Hash: rec.Hash, Idem: rec.Idem, Spec: *rec.Spec, Trace: rec.Trace}
			c.mu.Unlock()
		case "unplace":
			c.mu.Lock()
			if p := c.placements[rec.Job]; p != nil {
				p.Done = true
			}
			c.mu.Unlock()
		case "migrate":
			c.mu.Lock()
			if p := c.placements[rec.Job]; p != nil {
				p.NewNode, p.NewID = rec.Node, rec.NewID
			}
			c.mu.Unlock()
		}
	}
	if n := len(c.node.view.Load().members); n > 0 {
		c.node.log().Info("coordinator state restored from journal",
			"members", n, "placements", len(c.placements))
	}
}

// snapshot emits the current cluster state for WAL compaction: a join
// per live member, a place per non-terminal placement, a migrate per
// alias. Terminal placements are dropped — compaction is exactly the
// moment to forget them.
func (c *coordinator) snapshot() []server.ClusterRecord {
	var recs []server.ClusterRecord
	for _, l := range c.leases.Members() {
		recs = append(recs, server.ClusterRecord{Kind: "join", Node: l.Node, Addr: l.Addr, Peer: l.Peer, Epoch: l.Epoch})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.placements {
		if p.Done {
			continue
		}
		sp := p.Spec
		recs = append(recs, server.ClusterRecord{Kind: "place", Node: p.Node, Job: p.Job,
			Hash: p.Hash, Idem: p.Idem, Spec: &sp, Trace: p.Trace})
		if p.NewID != "" {
			recs = append(recs, server.ClusterRecord{Kind: "migrate", Node: p.NewNode, Job: p.Job, NewID: p.NewID})
		}
	}
	return recs
}

// join grants (or re-grants) a lease; the lease table publishes the
// coordinator's new view before it returns.
func (c *coordinator) join(req joinRequest) joinResponse {
	l := c.leases.Join(req.Node, req.Addr, req.Peer)
	_ = c.node.srv.JournalCluster(server.ClusterRecord{Kind: "join", Node: req.Node, Addr: req.Addr, Peer: req.Peer, Epoch: l.Epoch})
	c.node.log().Info("member joined", "member", req.Node, "addr", req.Addr, "peer", req.Peer, "epoch", l.Epoch)
	return joinResponse{Epoch: l.Epoch, TTLMS: c.node.cfg.LeaseTTL.Milliseconds(), Members: c.node.view.Load().members}
}

// heartbeat renews the lease and reconciles the member's job report
// against the placement table.
func (c *coordinator) heartbeat(req heartbeatRequest) (heartbeatResponse, error) {
	if err := c.leases.Renew(req.Node, req.Epoch); err != nil {
		// Zombie incarnation: the member was evicted (or is renewing
		// with a stale epoch after a partition healed). Fence it off —
		// the handler turns this into a 410 so it rejoins fresh.
		c.node.metrics.fenced.Add(1)
		return heartbeatResponse{}, err
	}
	c.node.metrics.heartbeats.Add(1)
	c.place(req.Node, req.Jobs)
	// Reconciliation: a placement on this node that no longer appears
	// in its (exhaustive, non-terminal) report has finished.
	reported := make(map[string]struct{}, len(req.Jobs))
	for _, j := range req.Jobs {
		reported[j.ID] = struct{}{}
	}
	c.mu.Lock()
	var finished []string
	for id, p := range c.placements {
		if p.Node != req.Node || p.Done || p.NewID != "" {
			continue
		}
		if _, ok := reported[id]; !ok {
			p.Done = true
			finished = append(finished, id)
		}
	}
	c.mu.Unlock()
	for _, id := range finished {
		_ = c.node.srv.JournalCluster(server.ClusterRecord{Kind: "unplace", Job: id})
	}
	return heartbeatResponse{Members: c.node.view.Load().members}, nil
}

// place records job placements (from heartbeats or eager admit
// notifications), journaling only new ones.
func (c *coordinator) place(node string, jobs []jobReport) {
	var fresh []jobReport
	c.mu.Lock()
	for _, j := range jobs {
		if existing := c.placements[j.ID]; existing != nil {
			if existing.Trace == "" && j.Traceparent != "" {
				existing.Trace = j.Traceparent // first traced report wins
			}
			continue
		}
		c.placements[j.ID] = &placement{Job: j.ID, Node: node, Hash: j.Hash, Idem: j.Idem,
			Spec: j.Spec, Trace: j.Traceparent}
		fresh = append(fresh, j)
	}
	c.mu.Unlock()
	for _, j := range fresh {
		sp := j.Spec
		_ = c.node.srv.JournalCluster(server.ClusterRecord{Kind: "place", Node: node, Job: j.ID,
			Hash: j.Hash, Idem: j.Idem, Spec: &sp, Trace: j.Traceparent})
	}
}

// sweep is one lease-expiry pass plus a retry of pending migrations.
// Called from the coordinator loop every TTL/4.
func (c *coordinator) sweep() {
	for _, l := range c.leases.Expired() {
		c.evict(l, "lease expired")
	}
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, p := range pending {
		c.migrate(p)
	}
}

// evict records the removal of a dead (or departing) member, whose
// lease is already gone from the table, and re-enqueues its
// non-terminal jobs on survivors.
func (c *coordinator) evict(l lease, why string) {
	c.node.metrics.nodesEvicted.Add(1)
	_ = c.node.srv.JournalCluster(server.ClusterRecord{Kind: "evict", Node: l.Node})
	c.node.log().Warn("member evicted", "member", l.Node, "reason", why, "epoch", l.Epoch)
	var orphans []*placement
	c.mu.Lock()
	for _, p := range c.placements {
		if p.Node == l.Node && !p.Done && p.NewID == "" {
			orphans = append(orphans, p)
		}
	}
	c.mu.Unlock()
	for _, p := range orphans {
		c.migrate(p)
	}
}

// migrate re-enqueues one orphaned job on the survivor the view now
// assigns its hash to, shedding along the successor list when that
// survivor is unreachable. The request lands through a migrated Submit
// on the survivor — past its admission bound, because this work was
// already acknowledged cluster-side — and the survivor's simulation
// resumes from the blob the dead node replicated (read-through in the
// server's checkpoint loader). Failure leaves the placement on the
// pending list for the next sweep.
func (c *coordinator) migrate(p *placement) {
	// The migrate span parents to the dead job's admit span (carried by
	// heartbeats into the placement table), so the re-homed job stays on
	// the original submission's trace.
	ms := c.node.tracer.Start(obs.ParseTraceparent(p.Trace), obs.KindMigrate, "migrate")
	ms.SetJob(p.Job)
	ms.SetAttr("from", p.Node)
	defer ms.End()
	req := migrateRequest{Job: p.Job, Hash: p.Hash, Idem: p.Idem, Spec: p.Spec, From: p.Node,
		Traceparent: ms.Context().Traceparent()}
	for _, target := range c.node.view.Load().successors(p.Hash) {
		newID, err := c.node.sendMigrate(target, req)
		if err != nil {
			c.node.log().Warn("migrate attempt failed", "job_id", p.Job, "target", target.ID, "err", err)
			continue
		}
		c.mu.Lock()
		p.NewNode, p.NewID = target.ID, newID
		c.mu.Unlock()
		c.node.metrics.jobsMigrated.Add(1)
		_ = c.node.srv.JournalCluster(server.ClusterRecord{Kind: "migrate", Node: target.ID, Job: p.Job, NewID: newID})
		ms.SetAttr("to", target.ID)
		ms.SetAttr("new_id", newID)
		c.node.log().Info("job migrated", "job_id", p.Job, "target", target.ID, "new_id", newID)
		return
	}
	ms.SetError(fmt.Errorf("no survivor accepted the job"))
	c.node.log().Warn("migration pending: no survivor accepted job", "job_id", p.Job)
	c.mu.Lock()
	c.pending = append(c.pending, p)
	c.mu.Unlock()
}

// resolve maps a job ID to the node currently holding it — through the
// migration alias when its original owner was evicted.
func (c *coordinator) resolve(id string) (resolveResponse, error) {
	c.mu.Lock()
	p := c.placements[id]
	var alias placement
	if p != nil {
		alias = *p
	}
	c.mu.Unlock()
	if p == nil {
		return resolveResponse{}, fmt.Errorf("cluster: unknown job %q", id)
	}
	node, jid := alias.Node, alias.Job
	if alias.NewID != "" {
		node, jid = alias.NewNode, alias.NewID
	}
	l, ok := c.leases.Get(node)
	if !ok {
		return resolveResponse{}, fmt.Errorf("cluster: job %q owner %s not currently a member", id, node)
	}
	return resolveResponse{Addr: l.Addr, ID: jid}, nil
}

// leave is the graceful departure path: drop the lease and migrate
// anything the member still had (normally nothing, because members
// drain before leaving).
func (c *coordinator) leave(req leaveRequest) {
	if l, ok := c.leases.Drop(req.Node); ok {
		c.evict(l, "graceful leave")
	}
}
