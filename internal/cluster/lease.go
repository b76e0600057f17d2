package cluster

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// The lease state machine (see DESIGN.md "Fault-tolerant cluster"):
//
//	join ──► active ──heartbeat──► active        (deadline pushed out)
//	             │
//	             └─ deadline passes ──► expired ──► evicted
//	                                                  │
//	                         rejoin (fresh epoch) ◄───┘
//
// A lease is the only thing keeping a member in the ring: the
// coordinator never probes workers, workers prove liveness. Each join
// mints a new epoch; a heartbeat carrying a stale epoch (the node was
// evicted and does not know it yet, e.g. after a network partition
// heals) is answered with ErrLeaseEvicted so the node re-joins instead
// of silently believing it still owns its shard.

// ErrLeaseEvicted rejects a heartbeat from a node that is no longer a
// member under the epoch it believes it has.
var ErrLeaseEvicted = errors.New("cluster: lease evicted; rejoin required")

// lease is one member's liveness contract.
type lease struct {
	Node    string
	Addr    string // public API address
	Peer    string // cluster (peer) address
	Epoch   int64
	Expires time.Time
}

// leaseTable tracks every member's lease under one TTL. It is the
// cluster's one membership source: publish, when set, receives the
// member list after every join and removal, under the table's lock so
// concurrent changes publish in the order they happened.
type leaseTable struct {
	ttl     time.Duration
	now     func() time.Time
	publish func([]Member)

	mu     sync.Mutex
	leases map[string]*lease
	epoch  int64 // strictly increasing across all joins
}

func newLeaseTable(ttl time.Duration) *leaseTable {
	return &leaseTable{ttl: ttl, now: time.Now, leases: make(map[string]*lease)}
}

// Join installs (or reinstalls) a member with a fresh epoch and a full
// TTL, returning the granted lease.
func (t *leaseTable) Join(node, addr, peer string) lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch++
	l := &lease{Node: node, Addr: addr, Peer: peer, Epoch: t.epoch, Expires: t.now().Add(t.ttl)}
	t.leases[node] = l
	t.changed()
	return *l
}

// Renew pushes a member's deadline out by one TTL. A node unknown to
// the table, or presenting an epoch other than its current one, gets
// ErrLeaseEvicted and must re-join.
func (t *leaseTable) Renew(node string, epoch int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[node]
	if l == nil || l.Epoch != epoch {
		return ErrLeaseEvicted
	}
	l.Expires = t.now().Add(t.ttl)
	return nil
}

// Expired removes and returns every lease whose deadline has passed.
func (t *leaseTable) Expired() []lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []lease
	for node, l := range t.leases {
		if now.After(l.Expires) {
			out = append(out, *l)
			delete(t.leases, node)
		}
	}
	if len(out) > 0 {
		t.changed()
	}
	return out
}

// Drop removes a member explicitly (graceful leave or forced evict),
// reporting whether it was present.
func (t *leaseTable) Drop(node string) (lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[node]
	if l == nil {
		return lease{}, false
	}
	delete(t.leases, node)
	t.changed()
	return *l, true
}

// changed hands the current member list to publish. Callers hold t.mu.
func (t *leaseTable) changed() {
	if t.publish == nil {
		return
	}
	ms := make([]Member, 0, len(t.leases))
	for _, l := range t.leases {
		ms = append(ms, Member{ID: l.Node, Addr: l.Addr, Peer: l.Peer})
	}
	t.publish(ms)
}

// Get returns a member's lease.
func (t *leaseTable) Get(node string) (lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[node]
	if l == nil {
		return lease{}, false
	}
	return *l, true
}

// Members lists current leases sorted by node ID.
func (t *leaseTable) Members() []lease {
	t.mu.Lock()
	out := make([]lease, 0, len(t.leases))
	for _, l := range t.leases {
		out = append(out, *l)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
