package core

import (
	"container/list"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// CacheKey identifies one negotiation outcome: the paper's adaptation
// cache maps { DevMeta, Application ID, NtwkMeta } to the PADMeta array
// the client needs. The principal extends the key for the access-control
// extension — two clients with identical environments but different
// authorization must not share results.
//
// A CacheKey is a comparable value used directly as a map key. Build it
// with NewCacheKey: the zero value names no negotiation.
type CacheKey struct {
	appID     string
	principal string
	dev       DevMeta
	ntwk      NtwkMeta
}

// NewCacheKey names the negotiation of appID by principal in env. CPU
// speed and bandwidth are rounded half-to-even to whole units, the
// collapse "%.0f" applies, so sessions whose scalars differ only below one
// MHz or one kbps share an entry. The path search still runs on the
// unrounded env.
func NewCacheKey(appID, principal string, env Env) CacheKey {
	dev, ntwk := env.Dev, env.Ntwk
	dev.CPUMHz = wholeUnits(dev.CPUMHz)
	ntwk.BandwidthKbps = wholeUnits(ntwk.BandwidthKbps)
	return CacheKey{appID: appID, principal: principal, dev: dev, ntwk: ntwk}
}

// wholeUnits rounds x half-to-even and folds -0 into 0, so keys that
// compare equal also hash equally.
func wholeUnits(x float64) float64 {
	if r := math.RoundToEven(x); r != 0 {
		return r
	}
	return 0
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns the FNV-1a 64-bit hash of the key's canonical rendering
// "app=%s|who=%s|os=%s|cpu=%s|mhz=%.0f|mem=%d|net=%s|bw=%.0f", streamed
// field by field without building the string. The fleet router ranks
// shards by it and the cache picks a lock domain with it; since it hashes
// the bytes the rendering would hold, a key routes to the same shard on
// every host and release.
//
//fractal:hotpath every negotiation hashes its key
func (k CacheKey) Hash() uint64 {
	var num [24]byte
	h := fnv1a(fnvOffset64, "app=")
	h = fnv1a(h, k.appID)
	h = fnv1a(h, "|who=")
	h = fnv1a(h, k.principal)
	h = fnv1a(h, "|os=")
	h = fnv1a(h, k.dev.OSType)
	h = fnv1a(h, "|cpu=")
	h = fnv1a(h, k.dev.CPUType)
	h = fnv1a(h, "|mhz=")
	h = fnv1a(h, appendWhole(num[:0], k.dev.CPUMHz))
	h = fnv1a(h, "|mem=")
	h = fnv1a(h, strconv.AppendInt(num[:0], int64(k.dev.MemMB), 10))
	h = fnv1a(h, "|net=")
	h = fnv1a(h, k.ntwk.NetworkType)
	h = fnv1a(h, "|bw=")
	return fnv1a(h, appendWhole(num[:0], k.ntwk.BandwidthKbps))
}

// appendWhole appends x as "%.0f" renders it. Positive whole numbers, all
// a CacheKey holds once validated, take the integer path; strconv's 'f'
// formatting, exact but slow at precision 0, covers the rest.
func appendWhole(b []byte, x float64) []byte {
	if x > 0 && x < 1<<63 && x == math.Trunc(x) {
		return strconv.AppendUint(b, uint64(x), 10)
	}
	return strconv.AppendFloat(b, x, 'f', 0, 64)
}

// fnv1a folds s into the running FNV-1a 64-bit hash h.
func fnv1a[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// CacheStats counts adaptation-cache behaviour.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// AdaptationCache is the distribution manager's negotiation-result cache,
// bounded by entry count with LRU eviction. It is safe for concurrent use.
//
// Internally the cache is split into a power-of-two number of shards, each
// with its own lock, LRU list, and counters, so concurrent sessions do not
// serialize on one mutex. Small caches (where per-shard capacity would
// drop below shardMinCap) use a single shard and therefore keep exact
// global LRU semantics; large caches trade global recency ordering for
// per-shard ordering, the standard sharded-LRU design.
type AdaptationCache struct {
	shards []*cacheShard
	shift  uint // a key's shard is its Hash() >> shift
}

// Sharding bounds: at most maxShards shards, and only when every shard
// keeps at least shardMinCap entries.
const (
	maxShards   = 16
	shardMinCap = 64
)

// cacheShard is one lock domain of the adaptation cache.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *adaptEntry
	entries map[CacheKey]*list.Element
	// byApp indexes live entries by application id so a topology push
	// invalidates in O(entries-for-app) instead of scanning the LRU.
	byApp map[string]map[*list.Element]struct{}
	stats CacheStats
}

type adaptEntry struct {
	key  CacheKey
	pads []PADMeta
}

// NewAdaptationCache builds a cache holding at most capacity entries in
// total across all shards.
func NewAdaptationCache(capacity int) (*AdaptationCache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("core: adaptation cache capacity must be positive, got %d", capacity)
	}
	shards, shift := 1, uint(64)
	for shards < maxShards && capacity/(shards*2) >= shardMinCap {
		shards *= 2
		shift--
	}
	c := &AdaptationCache{shards: make([]*cacheShard, shards), shift: shift}
	base, rem := capacity/shards, capacity%shards
	for i := range c.shards {
		sc := base
		if i < rem {
			sc++
		}
		c.shards[i] = &cacheShard{
			cap:     sc,
			order:   list.New(),
			entries: map[CacheKey]*list.Element{},
			byApp:   map[string]map[*list.Element]struct{}{},
		}
	}
	return c, nil
}

// shard maps a key to its lock domain by the top bits of its hash.
func (c *AdaptationCache) shard(k CacheKey) *cacheShard {
	return c.shards[k.Hash()>>c.shift]
}

// Shards reports the number of lock domains (always a power of two).
func (c *AdaptationCache) Shards() int { return len(c.shards) }

// Get returns the cached negotiation result for a client configuration.
//
//fractal:hotpath every negotiation hits the cache before searching
func (c *AdaptationCache) Get(k CacheKey) ([]PADMeta, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	s.order.MoveToFront(el)
	pads := el.Value.(*adaptEntry).pads
	return append([]PADMeta(nil), pads...), true
}

// Put stores a negotiation result, evicting the least recently used entry
// of the key's shard if that shard is full.
//
//fractal:hotpath every cache miss stores its search result here
func (c *AdaptationCache) Put(k CacheKey, pads []PADMeta) {
	cp := append([]PADMeta(nil), pads...)
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		el.Value.(*adaptEntry).pads = cp
		s.order.MoveToFront(el)
		return
	}
	el := s.order.PushFront(&adaptEntry{key: k, pads: cp})
	s.entries[k] = el
	app := s.byApp[k.appID]
	if app == nil {
		app = map[*list.Element]struct{}{}
		s.byApp[k.appID] = app
	}
	app[el] = struct{}{}
	for len(s.entries) > s.cap {
		back := s.order.Back()
		if back == nil {
			break
		}
		s.removeLocked(back)
		s.stats.Evictions++
	}
}

// removeLocked unlinks an element from the LRU order, the key map, and the
// per-app index. The shard lock must be held.
func (s *cacheShard) removeLocked(el *list.Element) {
	k := el.Value.(*adaptEntry).key
	s.order.Remove(el)
	delete(s.entries, k)
	if app := s.byApp[k.appID]; app != nil {
		delete(app, el)
		if len(app) == 0 {
			delete(s.byApp, k.appID)
		}
	}
}

// Invalidate drops every entry for an application, used when the server
// pushes a new AppMeta (topology change). The per-app index makes this
// proportional to the application's entries, not the cache size.
func (c *AdaptationCache) Invalidate(appID string) int {
	dropped := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for el := range s.byApp[appID] {
			s.order.Remove(el)
			delete(s.entries, el.Value.(*adaptEntry).key)
			dropped++
		}
		delete(s.byApp, appID)
		s.mu.Unlock()
	}
	return dropped
}

// Len returns the number of cached configurations.
func (c *AdaptationCache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns the hit/miss/eviction counters aggregated across shards.
func (c *AdaptationCache) Stats() CacheStats {
	var st CacheStats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.stats.Hits
		st.Misses += s.stats.Misses
		st.Evictions += s.stats.Evictions
		s.mu.Unlock()
	}
	return st
}
