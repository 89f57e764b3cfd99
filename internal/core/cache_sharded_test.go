package core

import (
	"fmt"
	"sync"
	"testing"
)

func shardedTestKey(app string, i int) CacheKey {
	return NewCacheKey(app, "tester", Env{
		Dev:  DevMeta{OSType: OSFedora, CPUType: CPUTypeP4, CPUMHz: float64(1000 + i), MemMB: 512},
		Ntwk: NtwkMeta{NetworkType: NetLAN, BandwidthKbps: 100000},
	})
}

func TestAdaptationCacheShardCount(t *testing.T) {
	cases := []struct {
		capacity int
		shards   int
	}{
		{1, 1},       // tiny caches stay single-sharded (exact LRU)
		{2, 1},       // pinned by TestAdaptationCacheLRUEviction
		{127, 1},     // 127/2 < 64: splitting would starve shards
		{128, 2},     // first capacity where two shards keep >= 64 each
		{512, 8},     // 512/8 = 64, but 512/16 would starve shards
		{1024, 16},   // 1024/16 = 64 exactly
		{100000, 16}, // capped at maxShards
	}
	for _, tc := range cases {
		c, err := NewAdaptationCache(tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Shards(); got != tc.shards {
			t.Errorf("capacity %d: got %d shards, want %d", tc.capacity, got, tc.shards)
		}
	}
}

func TestAdaptationCacheShardedAggregation(t *testing.T) {
	c, err := NewAdaptationCache(1024)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() < 2 {
		t.Fatalf("want multi-shard cache, got %d shards", c.Shards())
	}
	pads := []PADMeta{{ID: "p", Protocol: "gzip"}}
	const n = 300
	for i := 0; i < n; i++ {
		c.Put(shardedTestKey("app-a", i), pads)
	}
	if got := c.Len(); got != n {
		t.Fatalf("Len() = %d, want %d (aggregated across shards)", got, n)
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Get(shardedTestKey("app-a", i)); !ok {
			t.Fatalf("entry %d missing after fill", i)
		}
	}
	c.Get(shardedTestKey("app-a", n+1)) // one miss
	st := c.Stats()
	if st.Hits != n || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("aggregated stats = %+v, want {Hits:%d Misses:1 Evictions:0}", st, n)
	}
}

// TestAdaptationCacheInterleavedPutInvalidateGet is the satellite pin for
// the per-app invalidation index: interleaving Put/Invalidate/Get across
// two applications must never leak an invalidated entry, never drop a live
// one, and keep the index consistent with the LRU under re-puts.
func TestAdaptationCacheInterleavedPutInvalidateGet(t *testing.T) {
	for _, capacity := range []int{10, 1024} { // single-shard and sharded
		c, err := NewAdaptationCache(capacity)
		if err != nil {
			t.Fatal(err)
		}
		padsA := []PADMeta{{ID: "a", Protocol: "gzip"}}
		padsB := []PADMeta{{ID: "b", Protocol: "bitmap"}}

		c.Put(shardedTestKey("app-a", 1), padsA)
		c.Put(shardedTestKey("app-b", 1), padsB)
		c.Put(shardedTestKey("app-a", 2), padsA)

		if dropped := c.Invalidate("app-a"); dropped != 2 {
			t.Fatalf("cap %d: Invalidate(app-a) dropped %d, want 2", capacity, dropped)
		}
		if _, ok := c.Get(shardedTestKey("app-a", 1)); ok {
			t.Fatalf("cap %d: invalidated app-a entry survived", capacity)
		}
		if got, ok := c.Get(shardedTestKey("app-b", 1)); !ok || got[0].ID != "b" {
			t.Fatalf("cap %d: app-b entry lost by app-a invalidation", capacity)
		}

		// Re-put after invalidation, update in place, then invalidate again:
		// the per-app index must track the latest state, not history.
		c.Put(shardedTestKey("app-a", 1), padsA)
		c.Put(shardedTestKey("app-a", 1), padsB) // overwrite same key
		if got, ok := c.Get(shardedTestKey("app-a", 1)); !ok || got[0].ID != "b" {
			t.Fatalf("cap %d: overwrite lost", capacity)
		}
		if dropped := c.Invalidate("app-a"); dropped != 1 {
			t.Fatalf("cap %d: second Invalidate dropped %d, want 1 (overwrite must not double-index)", capacity, dropped)
		}
		if dropped := c.Invalidate("app-a"); dropped != 0 {
			t.Fatalf("cap %d: empty Invalidate dropped %d, want 0", capacity, dropped)
		}
		if got := c.Len(); got != 1 {
			t.Fatalf("cap %d: Len() = %d, want 1 (only app-b left)", capacity, got)
		}
	}
}

// TestAdaptationCacheEvictionMaintainsAppIndex checks that LRU eviction
// removes entries from the per-app index too, so Invalidate after heavy
// eviction reports only live entries.
func TestAdaptationCacheEvictionMaintainsAppIndex(t *testing.T) {
	c, err := NewAdaptationCache(4)
	if err != nil {
		t.Fatal(err)
	}
	pads := []PADMeta{{ID: "p", Protocol: "gzip"}}
	for i := 0; i < 100; i++ {
		c.Put(shardedTestKey("app-a", i), pads)
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("Len() = %d, want 4", got)
	}
	if st := c.Stats(); st.Evictions != 96 {
		t.Fatalf("Evictions = %d, want 96", st.Evictions)
	}
	if dropped := c.Invalidate("app-a"); dropped != 4 {
		t.Fatalf("Invalidate dropped %d, want 4 (evicted entries must leave the index)", dropped)
	}
}

func TestAdaptationCacheConcurrentMixedOps(t *testing.T) {
	c, err := NewAdaptationCache(2048)
	if err != nil {
		t.Fatal(err)
	}
	pads := []PADMeta{{ID: "p", Protocol: "gzip"}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			app := fmt.Sprintf("app-%d", w%3)
			for i := 0; i < 500; i++ {
				k := shardedTestKey(app, i%50)
				switch i % 5 {
				case 0, 1:
					c.Put(k, pads)
				case 2, 3:
					c.Get(k)
				default:
					c.Invalidate(app)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	if c.Len() > 2048 {
		t.Fatalf("Len() = %d exceeds capacity", c.Len())
	}
}
