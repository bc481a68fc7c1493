package fleet

import (
	"fmt"
	"testing"
)

func keysN(n int) []string {
	out := make([]string, n)
	for i := range out {
		// Shaped like real cache keys (endpoint|tech|float bits) so the
		// distribution measured here is the one production sees.
		out[i] = fmt.Sprintf("optimize|100nm|%x|%x", i*7919, i)
	}
	return out
}

// TestRingUniformity bounds the ownership skew: with 64 vnodes per member,
// every member of a 3-node ring owns between half and double its fair share
// of a large key population.
func TestRingUniformity(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3"}
	r := buildRing(members)
	counts := map[string]int{}
	keys := keysN(30000)
	for _, k := range keys {
		counts[r.owner(k)]++
	}
	fair := float64(len(keys)) / float64(len(members))
	for _, m := range members {
		got := float64(counts[m])
		if got < 0.5*fair || got > 2.0*fair {
			t.Errorf("member %s owns %0.f keys, fair share %0.f (skew out of [0.5, 2.0]×): %v",
				m, got, fair, counts)
		}
	}
}

// TestRingMinimalRemap is the property consistent hashing exists for:
// removing one member remaps only the keys that member owned. Every other
// key keeps its owner, so a single node loss cannot cold-start the whole
// fleet's caches.
func TestRingMinimalRemap(t *testing.T) {
	before := buildRing([]string{"a:1", "b:2", "c:3", "d:4"})
	after := buildRing([]string{"a:1", "b:2", "d:4"})
	keys := keysN(10000)
	moved := 0
	for _, k := range keys {
		was, is := before.owner(k), after.owner(k)
		if was == "c:3" {
			if is == "c:3" {
				t.Fatalf("key %q still owned by the removed member", k)
			}
			moved++
			continue
		}
		if was != is {
			t.Fatalf("key %q moved %s → %s although its owner stayed a member", k, was, is)
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned no keys; the test proved nothing")
	}
}

// TestRingDeterministicCandidates: every instance must compute the identical
// failover order for the same key, or forwards would orbit; and the owner
// must stay first with replicas distinct.
func TestRingDeterministicCandidates(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3", "d:4"}
	r1 := buildRing(members)
	r2 := buildRing([]string{"d:4", "c:3", "b:2", "a:1"}) // same set, shuffled input
	for _, k := range keysN(500) {
		c1 := r1.candidates(k, 3)
		c2 := r2.candidates(k, 3)
		if len(c1) != 3 || len(c2) != 3 {
			t.Fatalf("candidates(%q, 3) lengths %d, %d", k, len(c1), len(c2))
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("rings disagree on %q: %v vs %v", k, c1, c2)
			}
		}
		seen := map[string]bool{}
		for _, c := range c1 {
			if seen[c] {
				t.Fatalf("duplicate candidate for %q: %v", k, c1)
			}
			seen[c] = true
		}
		if c1[0] != r1.owner(k) {
			t.Fatalf("candidates(%q)[0] = %s, owner = %s", k, c1[0], r1.owner(k))
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	if got := buildRing(nil).candidates("k", 3); got != nil {
		t.Errorf("empty ring candidates = %v, want nil", got)
	}
	if got := buildRing(nil).owner("k"); got != "" {
		t.Errorf("empty ring owner = %q, want empty", got)
	}
	one := buildRing([]string{"solo:1", "", "solo:1"}) // dedup + drop empties
	if got := one.candidates("k", 5); len(got) != 1 || got[0] != "solo:1" {
		t.Errorf("single-member candidates = %v", got)
	}
	r := buildRing([]string{"a:1", "b:2"})
	if got := r.candidates("k", 0); got != nil {
		t.Errorf("n=0 candidates = %v, want nil", got)
	}
	if got := r.candidates("k", 99); len(got) != 2 {
		t.Errorf("n beyond membership returned %v, want both members", got)
	}
}
