package cluster

import (
	"net/http"

	"eruca/internal/server"
)

// collectMetrics adds the cluster-layer families to the shared scrape
// buffer. eruca_cluster_jobs_migrated and eruca_cluster_nodes_evicted
// are the headline fault-tolerance counters: nonzero values prove a
// lease expired and its work was re-homed rather than lost.
func (n *Node) collectMetrics(buf *server.MetricsBuf) {
	role := int64(0)
	if n.coord != nil {
		role = 1
	}
	buf.Gauge("eruca_cluster_members", "Live members in this node's ring view.", int64(len(n.view.Load().members)))
	buf.Gauge("eruca_cluster_is_coordinator", "1 on the coordinator, 0 on workers.", role)
	buf.Counter("eruca_cluster_jobs_migrated", "Jobs re-homed onto survivors after an eviction.", n.metrics.jobsMigrated.Load())
	buf.Counter("eruca_cluster_nodes_evicted", "Members evicted after missing their lease deadline.", n.metrics.nodesEvicted.Load())
	buf.Counter("eruca_cluster_heartbeats_total", "Lease renewals processed by the coordinator.", n.metrics.heartbeats.Load())
	buf.Counter("eruca_cluster_rejoins_total", "Times this member rejoined after an eviction (stale epoch).", n.metrics.rejoins.Load())
	buf.Counter("eruca_cluster_submits_forwarded_total", "Submissions forwarded to their ring owner.", n.metrics.forwarded.Load())
	buf.Counter("eruca_cluster_search_evals_forwarded_total", "Search design-point evals routed to their ring owner.", n.metrics.evalsForwarded.Load())
	buf.Counter("eruca_cluster_requests_proxied_total", "By-ID requests proxied to the job's owner.", n.metrics.proxied.Load())
	buf.Counter("eruca_cluster_submits_shed_local_total", "Submissions accepted locally because no peer was reachable.", n.metrics.shedLocal.Load())
	buf.Counter("eruca_cluster_fenced_requests_total", "Stale-epoch requests fenced off with 410 by the coordinator (split-brain writes rejected).", n.metrics.fenced.Load())
	buf.Gauge("eruca_cluster_breakers_open", "Peer circuit breakers currently open.", int64(n.breakers.OpenCount()))
	n.metrics.collectHops(buf)
}

// proxyClient is the streaming HTTP client for by-ID proxying: built
// per node (see peerClient) with dial/TLS/response-header deadlines but
// no overall timeout — a proxied SSE stream lives as long as the
// downstream client keeps the connection open, while a peer that
// accepts the connection and then never answers (slowloris) is cut off
// at the response-header deadline.
func (n *Node) proxyClient() *http.Client { return n.proxy }
