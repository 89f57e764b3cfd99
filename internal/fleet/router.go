// Package fleet is Fractal's multi-proxy tier: rendezvous-hash routing of
// client sessions across N adaptation-proxy shards, cross-shard
// adaptation-cache coherence (digest-keyed invalidation fan-out on
// topology pushes, optional warm-path replication of freshly searched
// entries), and the fixed-bucket latency histograms the fleet load
// harness reports through. The paper evaluates one proxy (Figures 9–11);
// this package is the piece that turns "one proxy, a handful of clients"
// into "N shards, a million simulated sessions" without touching the INP
// wire: the front router speaks to each shard through the same in-process
// negotiation entry points the single-proxy deployment uses.
package fleet

import "fmt"

// Router assigns session keys to shards by highest random weight
// (rendezvous) hashing over their 64-bit hash (core.CacheKey.Hash): every
// (key, shard) pair gets a pseudorandom 64-bit score and the key lives on
// the shard with the highest score.
// Unlike a mod-N table, membership changes are minimally disruptive —
// adding or removing one shard moves only the keys whose top score
// involved that shard, ~1/N of them — and unlike a consistent-hash ring
// there are no virtual-node tables to size or rebalance: the score is
// recomputed from (key hash, shard seed) on every lookup.
//
// A Router is immutable after construction and therefore safe for
// concurrent use.
type Router struct {
	names []string
	seeds []uint64
}

// NewRouter builds a router over the named shards. Names must be
// non-empty and unique: the shard's score stream is derived from its
// name, so a duplicate name would be the same shard twice.
func NewRouter(names []string) (*Router, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one shard")
	}
	r := &Router{names: append([]string(nil), names...), seeds: make([]uint64, len(names))}
	seen := map[string]bool{}
	for i, name := range r.names {
		if name == "" {
			return nil, fmt.Errorf("fleet: shard %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", name)
		}
		seen[name] = true
		r.seeds[i] = mix64(hash64(name))
	}
	return r, nil
}

// Shards reports the number of shards routed over.
func (r *Router) Shards() int { return len(r.names) }

// Name returns the i'th shard's name.
func (r *Router) Name(i int) string { return r.names[i] }

// Shard returns the index of the shard owning the key that hashes to h:
// the one whose (key, shard) score is highest. Ties — a 2^-64 event —
// resolve to the lower index, deterministically.
//
//fractal:hotpath one routing decision per fleet session
func (r *Router) Shard(h uint64) int {
	best := 0
	bestScore := mix64(h ^ r.seeds[0])
	for i := 1; i < len(r.seeds); i++ {
		if score := mix64(h ^ r.seeds[i]); score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// TopK fills out with the indices of the k highest-scoring shards for the
// key that hashes to h, best first, and returns the filled prefix. out's
// capacity bounds the work; no allocation occurs. The prefix [0] equals
// Shard(h); the
// rest are the key's rendezvous successors — where the key would move if
// higher-ranked shards left, and therefore where warm-path replication
// pays off.
//
//fractal:hotpath replication ranking on every cold fill
func (r *Router) TopK(h uint64, k int, out []int) []int {
	n := len(r.seeds)
	if k > n {
		k = n
	}
	if k <= 0 {
		return out[:0]
	}
	out = out[:0]
	// Selection by repeated scan: k and n are both small (k <= replicas,
	// n = shard count), so the quadratic bound beats sorting's allocation.
	for len(out) < k {
		best := -1
		var bestScore uint64
		for i := 0; i < n; i++ {
			taken := false
			for _, o := range out {
				if o == i {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			if score := mix64(h ^ r.seeds[i]); best < 0 || score > bestScore {
				best, bestScore = i, score
			}
		}
		out = append(out, best)
	}
	return out
}

// hash64 is FNV-1a over a shard name's bytes, the same function
// core.CacheKey.Hash streams over a key: stable across processes, so a
// snapshot taken on one host routes identically on another.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the SplitMix64 finalizer: a full-avalanche bijection that
// turns the xor of key hash and shard seed into an independent uniform
// score per (key, shard) pair.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
