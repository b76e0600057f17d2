package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("spec-hash-%04d", i)
	}
	return keys
}

// viewOf builds a view whose members' addresses derive from their IDs.
func viewOf(ids ...string) *view {
	ms := make([]Member, len(ids))
	for i, id := range ids {
		ms[i] = Member{ID: id, Addr: "a-" + id, Peer: "p-" + id}
	}
	return newView(ms)
}

// ownerID is the ID of key's owner ("" on an empty view).
func ownerID(v *view, key string) string {
	m, _ := v.owner(key)
	return m.ID
}

func TestRingDeterministicOwnership(t *testing.T) {
	// Member order must not matter: every router agrees on owners.
	a, b := viewOf("n1", "n2", "n3"), viewOf("n3", "n1", "n2")
	for _, k := range ringKeys(200) {
		if ao, bo := ownerID(a, k), ownerID(b, k); ao != bo {
			t.Fatalf("owner(%s): %s vs %s across member orders", k, ao, bo)
		}
	}
}

func TestRingBalance(t *testing.T) {
	v := viewOf("n1", "n2", "n3")
	counts := map[string]int{}
	keys := ringKeys(3000)
	for _, k := range keys {
		counts[ownerID(v, k)]++
	}
	for n, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac < 0.20 || frac > 0.47 {
			t.Errorf("member %s owns %.1f%% of keys; want roughly a third", n, frac*100)
		}
	}
}

func TestRingRemovalMovesOnlyOrphanedKeys(t *testing.T) {
	before, after := viewOf("n1", "n2", "n3"), viewOf("n1", "n3")
	for _, k := range ringKeys(1000) {
		was, now := ownerID(before, k), ownerID(after, k)
		if now == "n2" {
			t.Fatalf("key %s still owned by removed member", k)
		}
		// Consistency: keys not owned by the removed member keep their
		// owner — the cache shards of survivors stay warm.
		if was != "n2" && now != was {
			t.Errorf("key %s moved %s -> %s though %s is still a member", k, was, now, was)
		}
	}
}

func TestRingSuccessorsDistinctAndStartAtOwner(t *testing.T) {
	v := viewOf("n1", "n2", "n3")
	for _, k := range ringKeys(50) {
		succ := v.successors(k)
		if len(succ) != 3 {
			t.Fatalf("want 3 successors, got %v", succ)
		}
		if owner, _ := v.owner(k); succ[0] != owner {
			t.Fatalf("successor list %v does not start at owner %v", succ, owner)
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s.ID] {
				t.Fatalf("duplicate member in successors %v", succ)
			}
			seen[s.ID] = true
			// The ring and the addresses are one structure: every
			// member it names carries its own addresses.
			if s.Addr != "a-"+s.ID || s.Peer != "p-"+s.ID {
				t.Fatalf("successor %+v carries another member's addresses", s)
			}
		}
	}
}

func TestRingEmpty(t *testing.T) {
	v := newView(nil)
	if m, ok := v.owner("k"); ok {
		t.Errorf("empty view owner = %+v", m)
	}
	if s := v.successors("k"); s != nil {
		t.Errorf("empty view successors = %v", s)
	}
	if _, ok := v.member("n1"); ok {
		t.Error("empty view has a member")
	}
}
