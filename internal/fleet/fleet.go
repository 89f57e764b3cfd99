package fleet

import (
	"crypto/sha1"
	"fmt"
	"sync"
	"sync/atomic"

	"fractal/internal/core"
	"fractal/internal/proxy"
)

// Config parameterizes a proxy tier.
type Config struct {
	// Shards is the number of adaptation-proxy shards (>= 1).
	Shards int
	// Model is the overhead model every shard negotiates with.
	Model core.OverheadModel
	// CacheCapacity is each shard's adaptation-cache capacity.
	CacheCapacity int
	// Replicas is the number of shards holding each warm cache entry:
	// 1 (the default when 0) keeps entries only on their rendezvous owner;
	// k > 1 copies every fresh search result to the key's k-1 rendezvous
	// successors, so a membership change finds the moved keys warm.
	Replicas int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("fleet: need at least one shard, got %d", c.Shards)
	}
	if c.CacheCapacity < 1 {
		return fmt.Errorf("fleet: cache capacity must be positive, got %d", c.CacheCapacity)
	}
	if c.Replicas > c.Shards {
		return fmt.Errorf("fleet: %d replicas exceed %d shards", c.Replicas, c.Shards)
	}
	return nil
}

// maxReplicas bounds the warm-replication fan-out so the per-fill ranking
// buffer can live on the stack.
const maxReplicas = 4

// Stats aggregates the tier's coherence counters. Per-shard negotiation
// counters live on the shards themselves (ShardStats).
type Stats struct {
	// InvalidationsApplied counts (shard × app) topology applications that
	// actually reached a shard's negotiation manager.
	InvalidationsApplied int64
	// InvalidationsSuppressed counts fan-out legs skipped because the
	// shard had already applied an identical topology digest.
	InvalidationsSuppressed int64
	// ReplicatedFills counts warm-path cache seeds pushed to rendezvous
	// successors after a cold search.
	ReplicatedFills int64
}

// Fleet is a sharded adaptation-proxy tier behind one front router:
// sessions are routed to shards by rendezvous hashing on the hash of
// their core.CacheKey (application + principal + client profile), topology pushes
// fan out to every shard keyed by a digest of the pushed metadata so
// duplicate pushes are suppressed per shard, and — optionally — fresh
// search results are replicated to the key's rendezvous successors.
//
// A Fleet is safe for concurrent use: the router is immutable, shards
// synchronize themselves, and the coherence ledger has its own mutex that
// is never held across a shard call.
type Fleet struct {
	cfg    Config
	router *Router
	shards []*proxy.Proxy

	// mu guards applied, the coherence ledger: per shard, the digest of
	// the topology version last applied per application. The lock is
	// released before any shard push; the fan-out below therefore
	// tolerates (and re-suppresses) concurrent pushers.
	mu      sync.Mutex
	applied []map[string][sha1.Size]byte

	invalidationsApplied    atomic.Int64
	invalidationsSuppressed atomic.Int64
	replicatedFills         atomic.Int64
}

// New builds the tier: cfg.Shards independent proxies sharing one
// overhead model, behind a rendezvous router whose shard names are
// "shard-0".."shard-N-1".
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > maxReplicas {
		return nil, fmt.Errorf("fleet: at most %d replicas supported, got %d", maxReplicas, cfg.Replicas)
	}
	names := make([]string, cfg.Shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	router, err := NewRouter(names)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:     cfg,
		router:  router,
		shards:  make([]*proxy.Proxy, cfg.Shards),
		applied: make([]map[string][sha1.Size]byte, cfg.Shards),
	}
	for i := range f.shards {
		p, err := proxy.New(cfg.Model, cfg.CacheCapacity)
		if err != nil {
			return nil, fmt.Errorf("fleet: building %s: %w", names[i], err)
		}
		f.shards[i] = p
		f.applied[i] = map[string][sha1.Size]byte{}
	}
	return f, nil
}

// Shards reports the tier width.
func (f *Fleet) Shards() int { return len(f.shards) }

// Router exposes the routing function (for tests and the load harness's
// shard accounting).
func (f *Fleet) Router() *Router { return f.router }

// Shard exposes shard i's proxy, for per-shard stats and direct drives.
func (f *Fleet) Shard(i int) *proxy.Proxy { return f.shards[i] }

// TopologyDigest renders the coherence key of an application's metadata:
// a SHA-1 over the identity and module digest of every PAD, in push
// order. Two AppMeta values with the same digest install identical
// adaptation topologies, so a shard that has applied the digest may skip
// a duplicate push.
func TopologyDigest(app core.AppMeta) [sha1.Size]byte {
	pre := make([]byte, 0, 64+64*len(app.PADs))
	pre = append(pre, app.AppID...)
	for _, p := range app.PADs {
		pre = append(pre, 0)
		pre = append(pre, p.ID...)
		pre = append(pre, 0)
		pre = append(pre, p.Version...)
		pre = append(pre, 0)
		pre = append(pre, p.Protocol...)
		pre = append(pre, 0)
		pre = append(pre, p.Parent...)
		pre = append(pre, 0)
		pre = append(pre, p.Alias...)
		pre = append(pre, p.Digest[:]...)
	}
	return sha1.Sum(pre)
}

// PushAppMeta installs a topology across the tier: the digest-keyed
// invalidation fan-out. Every shard whose last applied digest for the
// application differs receives the push (which rebuilds its PAT and
// invalidates its adaptation-cache entries for the app); shards already
// at this digest are suppressed. The coherence ledger is snapshotted and
// updated under its mutex, but no lock is held across a shard push.
func (f *Fleet) PushAppMeta(app core.AppMeta) error {
	digest := TopologyDigest(app)

	// Decide the fan-out under the ledger lock, then release it: a shard
	// push runs a full PAT build and may verify modules, and holding the
	// ledger across it would serialize the tier behind one slow shard.
	targets := make([]int, 0, len(f.shards))
	f.mu.Lock()
	for i := range f.shards {
		if f.applied[i][app.AppID] == digest {
			continue
		}
		targets = append(targets, i)
	}
	f.mu.Unlock()

	suppressed := int64(len(f.shards) - len(targets))
	for _, i := range targets {
		if err := f.shards[i].PushAppMeta(app); err != nil {
			return fmt.Errorf("fleet: %s: %w", f.router.Name(i), err)
		}
		f.mu.Lock()
		f.applied[i][app.AppID] = digest
		f.mu.Unlock()
		f.invalidationsApplied.Add(1)
	}
	f.invalidationsSuppressed.Add(suppressed)
	return nil
}

// Negotiate routes an anonymous client session to its rendezvous shard
// and negotiates there. The INP wire is unchanged: a front router
// terminates the client exchange exactly as a single proxy does, and this
// is its in-process entry point.
func (f *Fleet) Negotiate(appID string, env core.Env, sessionRequests int) ([]core.PADMeta, error) {
	pads, _, _, err := f.NegotiateFor("", appID, env, sessionRequests)
	return pads, err
}

// NegotiateFor is Negotiate with an authenticated principal: route on the
// session's core.CacheKey hash, negotiate on the owning shard, and on a
// fresh search optionally replicate the prepared result to the key's
// rendezvous successors. It reports the shard-side outcome and the owning
// shard.
//
// Collapse of concurrent cold keys needs no fleet-level machinery:
// routing sends every caller of a key to one shard, whose singleflight
// (syncx.Group) already runs at most one search per key, so a fleet-wide
// stampede on a cold key still triggers exactly one path search.
func (f *Fleet) NegotiateFor(principal, appID string, env core.Env, sessionRequests int) ([]core.PADMeta, proxy.Outcome, int, error) {
	h := core.NewCacheKey(appID, principal, env).Hash()
	shard := f.router.Shard(h)
	pads, outcome, err := f.shards[shard].NegotiateFor(principal, appID, env, sessionRequests)
	if err != nil {
		return nil, outcome, shard, err
	}
	if outcome == proxy.OutcomeSearch && f.cfg.Replicas > 1 {
		var buf [maxReplicas]int
		ranked := f.router.TopK(h, f.cfg.Replicas, buf[:0])
		for _, idx := range ranked[1:] {
			f.shards[idx].SeedCache(principal, appID, env, pads)
			f.replicatedFills.Add(1)
		}
	}
	return pads, outcome, shard, nil
}

// Stats returns the tier's coherence counters.
func (f *Fleet) Stats() Stats {
	return Stats{
		InvalidationsApplied:    f.invalidationsApplied.Load(),
		InvalidationsSuppressed: f.invalidationsSuppressed.Load(),
		ReplicatedFills:         f.replicatedFills.Load(),
	}
}

// ShardStats returns shard i's negotiation counters.
func (f *Fleet) ShardStats(i int) proxy.Stats { return f.shards[i].Stats() }

// AggregateStats sums the negotiation counters across shards.
func (f *Fleet) AggregateStats() proxy.Stats {
	var out proxy.Stats
	for _, s := range f.shards {
		st := s.Stats()
		out.Negotiations += st.Negotiations
		out.CacheHits += st.CacheHits
		out.TopologyPushes += st.TopologyPushes
		out.Searches += st.Searches
		out.CollapsedSearches += st.CollapsedSearches
		out.TotalSearchNanos += st.TotalSearchNanos
		out.VerifierRejections += st.VerifierRejections
	}
	return out
}
