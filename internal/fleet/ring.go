package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over the fleet's member addresses. Each
// member contributes vnodes virtual points so key ownership spreads evenly;
// a key's owner is the first point at or clockwise of the key's hash, and
// its replicas are the next distinct members walking the ring. Membership
// changes rebuild the ring; removing one member remaps only the keys that
// member owned (every other key's first point is untouched), which is the
// property that keeps a fleet's caches warm through a single node loss.
//
// The ring is immutable once built; Fleet swaps whole rings under its lock.
type ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // distinct members, sorted
}

type ringPoint struct {
	hash uint64
	node string
}

// vnodes is the virtual-point count per member. 64 points over a
// handful of members keeps the max/min ownership ratio within ~1.5× (see
// TestRingUniformity) at negligible build and lookup cost.
const vnodes = 64

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is a splitmix64-style finalizer. FNV-64a alone has weak avalanche on
// short, similar strings — vnode labels like "host:port#17" land in clumps
// and skew ownership past 2× (caught by TestRingUniformity); the finalizer
// spreads them uniformly around the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// buildRing constructs the ring for the given members (deduplicated; empty
// strings dropped). A nil or empty member list yields an empty ring whose
// candidates are always nil.
func buildRing(members []string) *ring {
	seen := make(map[string]bool, len(members))
	nodes := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		nodes = append(nodes, m)
	}
	sort.Strings(nodes)
	r := &ring{
		points: make([]ringPoint, 0, len(nodes)*vnodes),
		nodes:  nodes,
	}
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by name so two independently
		// built rings agree on ownership exactly.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// candidates returns up to n distinct members in ring order starting at
// key's owner: candidates(key, 1+R)[0] is the owner and the rest are its
// replicas in deterministic failover order. Every member of a fleet with the
// same membership computes the same candidate list for the same key.
func (r *ring) candidates(key string, n int) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	for j := 0; len(out) < n && j < len(r.points); j++ {
		node := r.points[(i+j)%len(r.points)].node
		dup := false
		for _, o := range out {
			if o == node {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, node)
		}
	}
	return out
}

// owner is candidates(key, 1)[0] — the key's home shard.
func (r *ring) owner(key string) string {
	c := r.candidates(key, 1)
	if len(c) == 0 {
		return ""
	}
	return c[0]
}
