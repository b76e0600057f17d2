package cluster

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// view is one immutable snapshot of cluster membership: every member's
// addresses plus the consistent-hash ring over their IDs. A node
// publishes a new view with one atomic pointer store whenever its
// member list changes, so no reader can see a ring owner without its
// addresses.
//
// Jobs are placed by their content hash (the server's spec hash), so
// every node that routes a given spec routes it to the same owner —
// which is what lets the per-node singleflight dedup collapse duplicate
// submissions cluster-wide — and membership changes move only the keys
// adjacent to the changed node, not the whole keyspace (the
// result-cache shards stay mostly warm through a join or an eviction).
type view struct {
	members []Member    // sorted by ID
	points  []ringPoint // sorted by h
}

type ringPoint struct {
	h uint64
	m int // index into members
}

// ringVnodes is the virtual-node count per member: enough that three
// nodes split the keyspace within a few percent of evenly.
const ringVnodes = 64

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newView builds the view of a member list given in any order.
func newView(ms []Member) *view {
	v := &view{members: slices.Clone(ms)}
	slices.SortFunc(v.members, func(a, b Member) int { return strings.Compare(a.ID, b.ID) })
	v.points = make([]ringPoint, 0, len(v.members)*ringVnodes)
	for i, m := range v.members {
		for k := 0; k < ringVnodes; k++ {
			v.points = append(v.points, ringPoint{h: ringHash(fmt.Sprintf("%s#%d", m.ID, k)), m: i})
		}
	}
	slices.SortFunc(v.points, func(a, b ringPoint) int { return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.m, b.m)) })
	return v
}

// member looks a node ID up.
func (v *view) member(id string) (Member, bool) {
	i, ok := slices.BinarySearchFunc(v.members, id, func(m Member, id string) int { return strings.Compare(m.ID, id) })
	if !ok {
		return Member{}, false
	}
	return v.members[i], true
}

// start is the index of key's owning ring point.
func (v *view) start(key string) int {
	h := ringHash(key)
	return sort.Search(len(v.points), func(i int) bool { return v.points[i].h >= h }) % len(v.points)
}

// owner returns the member owning key (ok=false on an empty view).
func (v *view) owner(key string) (Member, bool) {
	if len(v.points) == 0 {
		return Member{}, false
	}
	return v.members[v.points[v.start(key)].m], true
}

// successors returns every member once, in ring order starting at key's
// owner — the shed order when the owner is unreachable.
func (v *view) successors(key string) []Member {
	if len(v.points) == 0 {
		return nil
	}
	out := make([]Member, 0, len(v.members))
	seen := make([]bool, len(v.members))
	for i, k := v.start(key), 0; k < len(v.points) && len(out) < len(v.members); k++ {
		p := v.points[(i+k)%len(v.points)]
		if !seen[p.m] {
			seen[p.m] = true
			out = append(out, v.members[p.m])
		}
	}
	return out
}
