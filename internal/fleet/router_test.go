package fleet

import (
	"fmt"
	"math/rand"
	"testing"

	"fractal/internal/core"
)

func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	return names
}

// testKeys returns the routing hashes of n seeded session keys.
func testKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(1887))
	keys := make([]uint64, n)
	for i := range keys {
		env := core.Env{
			Dev: core.DevMeta{OSType: fmt.Sprintf("OS%d", rng.Intn(4)), CPUType: fmt.Sprintf("C%d", rng.Intn(3)),
				CPUMHz: float64(200 + rng.Intn(4000)), MemMB: 16 + rng.Intn(1024)},
			Ntwk: core.NtwkMeta{NetworkType: fmt.Sprintf("N%d", rng.Intn(4)), BandwidthKbps: float64(16 + rng.Intn(200000))},
		}
		keys[i] = core.NewCacheKey("webapp", "", env).Hash()
	}
	return keys
}

func TestRouterErrors(t *testing.T) {
	if _, err := NewRouter(nil); err == nil {
		t.Fatal("empty router accepted")
	}
	if _, err := NewRouter([]string{"a", ""}); err == nil {
		t.Fatal("empty shard name accepted")
	}
	if _, err := NewRouter([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate shard name accepted")
	}
}

func TestRouterBalance(t *testing.T) {
	const shards, keys = 8, 40000
	r, err := NewRouter(shardNames(shards))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for _, k := range testKeys(keys) {
		counts[r.Shard(k)]++
	}
	want := keys / shards
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("shard %d holds %d keys, want %d +-20%%", i, c, want)
		}
	}
}

// TestRouterAddShardMovesFraction is the rendezvous stability property:
// growing the tier from N to N+1 shards moves ~1/(N+1) of the keys, and
// every moved key moves to the new shard — no key shuffles between
// surviving shards.
func TestRouterAddShardMovesFraction(t *testing.T) {
	const keys = 40000
	for _, n := range []int{2, 4, 8, 15} {
		before, err := NewRouter(shardNames(n))
		if err != nil {
			t.Fatal(err)
		}
		after, err := NewRouter(shardNames(n + 1))
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range testKeys(keys) {
			a, b := before.Shard(k), after.Shard(k)
			if a == b {
				continue
			}
			moved++
			if b != n {
				t.Fatalf("n=%d: key moved %d->%d, not to the new shard %d", n, a, b, n)
			}
		}
		frac := float64(moved) / keys
		ideal := 1.0 / float64(n+1)
		if frac < ideal*0.7 || frac > ideal*1.3 {
			t.Errorf("n=%d->%d: moved %.4f of keys, want ~%.4f (+-30%%)", n, n+1, frac, ideal)
		}
	}
}

// TestRouterRemoveShardMovesOnlyItsKeys checks the complementary
// property: removing a shard relocates exactly the keys it owned, and
// every other key keeps its owner.
func TestRouterRemoveShardMovesOnlyItsKeys(t *testing.T) {
	const n, keys = 8, 40000
	names := shardNames(n)
	full, err := NewRouter(names)
	if err != nil {
		t.Fatal(err)
	}
	const removed = 3
	rest := append(append([]string(nil), names[:removed]...), names[removed+1:]...)
	shrunk, err := NewRouter(rest)
	if err != nil {
		t.Fatal(err)
	}
	nameOf := func(r *Router, k uint64) string { return r.Name(r.Shard(k)) }
	movedFromRemoved := 0
	for _, k := range testKeys(keys) {
		before, after := nameOf(full, k), nameOf(shrunk, k)
		if before == names[removed] {
			movedFromRemoved++
			continue // owner left; any surviving shard may take it
		}
		if before != after {
			t.Fatalf("key on surviving shard moved %s->%s after removing %s", before, after, names[removed])
		}
	}
	ideal := float64(keys) / n
	if f := float64(movedFromRemoved); f < ideal*0.8 || f > ideal*1.2 {
		t.Errorf("removed shard owned %d keys, want ~%.0f +-20%%", movedFromRemoved, ideal)
	}
}

func TestRouterTopK(t *testing.T) {
	r, err := NewRouter(shardNames(6))
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]int
	for _, k := range testKeys(500) {
		ranked := r.TopK(k, 3, buf[:0])
		if len(ranked) != 3 {
			t.Fatalf("TopK(3) returned %d entries", len(ranked))
		}
		if ranked[0] != r.Shard(k) {
			t.Fatalf("TopK[0] = %d, Shard = %d", ranked[0], r.Shard(k))
		}
		seen := map[int]bool{}
		for _, s := range ranked {
			if s < 0 || s >= 6 || seen[s] {
				t.Fatalf("TopK returned invalid/duplicate shard %d in %v", s, ranked)
			}
			seen[s] = true
		}
	}
	if got := r.TopK(hash64("k"), 99, buf[:0]); len(got) != 6 {
		t.Fatalf("TopK clamps to shard count: got %d", len(got))
	}
	if got := r.TopK(hash64("k"), 0, buf[:0]); len(got) != 0 {
		t.Fatalf("TopK(0) = %v, want empty", got)
	}
}

// TestRouterSuccessorConsistency ties TopK to the removal property: when
// a key's owner leaves, the new owner is the key's first rendezvous
// successor — the shard warm-path replication seeded.
func TestRouterSuccessorConsistency(t *testing.T) {
	names := shardNames(5)
	full, err := NewRouter(names)
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]int
	for _, k := range testKeys(2000) {
		ranked := full.TopK(k, 2, buf[:0])
		owner, successor := ranked[0], ranked[1]
		rest := make([]string, 0, len(names)-1)
		for i, nm := range names {
			if i != owner {
				rest = append(rest, nm)
			}
		}
		shrunk, err := NewRouter(rest)
		if err != nil {
			t.Fatal(err)
		}
		if got := shrunk.Name(shrunk.Shard(k)); got != names[successor] {
			t.Fatalf("after removing owner %s, key went to %s, want successor %s", names[owner], got, names[successor])
		}
	}
}

func TestRouterShardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs-per-run is meaningless")
	}
	r, err := NewRouter(shardNames(8))
	if err != nil {
		t.Fatal(err)
	}
	key := testKeys(1)[0]
	var buf [4]int
	if avg := testing.AllocsPerRun(200, func() { r.Shard(key) }); avg != 0 {
		t.Fatalf("Shard allocates %.1f times per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { r.TopK(key, 3, buf[:0]) }); avg != 0 {
		t.Fatalf("TopK allocates %.1f times per call, want 0", avg)
	}
}

func BenchmarkRouterShard8(b *testing.B) {
	r, err := NewRouter(shardNames(8))
	if err != nil {
		b.Fatal(err)
	}
	keys := testKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for n := 0; n < b.N; n++ {
		sum += r.Shard(keys[n&1023])
	}
	shardSink = sum
}

// shardSink keeps BenchmarkRouterShard8's Shard calls live.
var shardSink int
