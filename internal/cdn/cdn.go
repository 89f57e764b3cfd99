package cdn

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fractal/internal/netsim"
	"fractal/internal/syncx"
)

// Origin is the authoritative object store behind the edgeservers (the
// application server's publishing point for PADs).
type Origin struct {
	mu      sync.RWMutex
	objects map[string][]byte
	// Server models the origin's uplink for direct (centralized) serving
	// and for edge cache-miss fills.
	Server netsim.SharedServer
}

// NewOrigin returns an empty origin with the given uplink model.
func NewOrigin(server netsim.SharedServer) (*Origin, error) {
	if err := server.Validate(); err != nil {
		return nil, fmt.Errorf("cdn: origin: %w", err)
	}
	return &Origin{objects: map[string][]byte{}, Server: server}, nil
}

// Publish stores (or replaces) an object.
func (o *Origin) Publish(path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("cdn: cannot publish empty path")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.objects[path] = append([]byte(nil), data...)
	return nil
}

// Get returns an object's bytes.
func (o *Origin) Get(path string) ([]byte, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	data, ok := o.objects[path]
	if !ok {
		return nil, fmt.Errorf("cdn: no object at %q", path)
	}
	return data, nil
}

// Paths returns the sorted published paths.
func (o *Origin) Paths() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	ps := make([]string, 0, len(o.objects))
	for p := range o.objects {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

// EdgeStats counts an edgeserver's cache behaviour. OriginFills counts
// actual fills executed against the origin; CollapsedFills counts misses
// that shared another miss's in-flight fill, so under a cold-object
// stampede OriginFills stays at one per object.
type EdgeStats struct {
	Hits           int64
	Misses         int64
	OriginFills    int64
	CollapsedFills int64
}

// Edge is one CDN edgeserver: an LRU cache in a region, filling from the
// origin on miss. Edge methods are safe for concurrent use once the
// struct is built: the cache carries its own lock and the stats are
// atomic counters. The exported configuration fields must not be mutated
// after construction.
type Edge struct {
	ID     string
	Region string
	// Server models the edge's uplink toward its clients.
	Server netsim.SharedServer
	// OriginRTT and OriginKbps model the edge-to-origin path used on
	// cache misses.
	OriginRTT  time.Duration
	OriginKbps float64

	origin *Origin
	cache  *lruCache
	// sf collapses concurrent cache misses for the same path into one
	// origin fill.
	sf             syncx.Group[string, fillResult]
	hits           atomic.Int64
	misses         atomic.Int64
	originFills    atomic.Int64
	collapsedFills atomic.Int64
	failed         atomic.Bool
}

// fillResult is the shared outcome of one origin fill.
type fillResult struct {
	data []byte
	fill time.Duration
}

// EdgeConfig parameterizes one edgeserver.
type EdgeConfig struct {
	ID         string
	Region     string
	Server     netsim.SharedServer
	CacheBytes int64
	OriginRTT  time.Duration
	OriginKbps float64
}

// NewEdge builds an edgeserver attached to an origin.
func NewEdge(cfg EdgeConfig, origin *Origin) (*Edge, error) {
	if cfg.ID == "" || cfg.Region == "" {
		return nil, fmt.Errorf("cdn: edge needs id and region, got %q/%q", cfg.ID, cfg.Region)
	}
	if origin == nil {
		return nil, fmt.Errorf("cdn: edge %s needs an origin", cfg.ID)
	}
	if err := cfg.Server.Validate(); err != nil {
		return nil, fmt.Errorf("cdn: edge %s: %w", cfg.ID, err)
	}
	if cfg.OriginKbps <= 0 {
		return nil, fmt.Errorf("cdn: edge %s: origin bandwidth must be positive", cfg.ID)
	}
	if cfg.OriginRTT < 0 {
		return nil, fmt.Errorf("cdn: edge %s: negative origin RTT", cfg.ID)
	}
	cache, err := newLRUCache(cfg.CacheBytes)
	if err != nil {
		return nil, fmt.Errorf("cdn: edge %s: %w", cfg.ID, err)
	}
	return &Edge{
		ID: cfg.ID, Region: cfg.Region, Server: cfg.Server,
		OriginRTT: cfg.OriginRTT, OriginKbps: cfg.OriginKbps,
		origin: origin, cache: cache,
	}, nil
}

// SetFailed marks the edge as down (failure injection) or back up;
// Retrieve fails over to the next-closest healthy edge.
func (e *Edge) SetFailed(down bool) { e.failed.Store(down) }

// Failed reports whether the edge is down.
func (e *Edge) Failed() bool { return e.failed.Load() }

// Fetch returns the object, the extra time spent filling from the origin
// (zero on a cache hit), and whether it was a miss.
func (e *Edge) Fetch(path string) (data []byte, fill time.Duration, miss bool, err error) {
	if e.failed.Load() {
		return nil, 0, false, fmt.Errorf("cdn: edge %s is down", e.ID)
	}
	if data, ok := e.cache.Get(path); ok {
		e.hits.Add(1)
		return data, 0, false, nil
	}
	e.misses.Add(1)
	res, err, joined := e.sf.Do(path, func() (fillResult, error) {
		// Double-check under leadership: a concurrent miss may have
		// completed its fill between our miss and this call, so each path
		// is filled from the origin at most once per residency.
		if data, ok := e.cache.Get(path); ok {
			return fillResult{data: data}, nil
		}
		return e.fillFromOrigin(path)
	})
	if joined {
		e.collapsedFills.Add(1)
	}
	if err != nil {
		return nil, 0, true, err
	}
	return res.data, res.fill, true, nil
}

// fillFromOrigin fetches one object from the origin, caches it, and
// accounts the simulated fill time over the edge-to-origin path.
func (e *Edge) fillFromOrigin(path string) (fillResult, error) {
	e.originFills.Add(1)
	data, err := e.origin.Get(path)
	if err != nil {
		return fillResult{}, fmt.Errorf("cdn: edge %s: %w", e.ID, err)
	}
	e.cache.Put(path, data)
	secs := float64(len(data)) * 8.0 / (e.OriginKbps * 1000.0)
	fillTransfer, err := netsim.Seconds(secs)
	if err != nil {
		return fillResult{}, fmt.Errorf("cdn: edge %s origin fill: %w", e.ID, err)
	}
	return fillResult{data: data, fill: e.OriginRTT + fillTransfer}, nil
}

// Stats returns the edge's hit/miss/fill counters.
func (e *Edge) Stats() EdgeStats {
	return EdgeStats{
		Hits:           e.hits.Load(),
		Misses:         e.misses.Load(),
		OriginFills:    e.originFills.Load(),
		CollapsedFills: e.collapsedFills.Load(),
	}
}

// CDN is the distribution network: an origin plus edgeservers. It
// implements the paper's "it is the CDN's responsibility to find the
// closest edgeserver which holds the PAD, and to redirect the request".
// CDN is safe for concurrent use; the edge list is guarded by an RWMutex
// and each Edge synchronizes independently.
type CDN struct {
	origin *Origin
	mu     sync.RWMutex
	edges  []*Edge
}

// New builds a CDN over an origin.
func New(origin *Origin) (*CDN, error) {
	if origin == nil {
		return nil, fmt.Errorf("cdn: nil origin")
	}
	return &CDN{origin: origin}, nil
}

// Origin exposes the publishing point.
func (c *CDN) Origin() *Origin { return c.origin }

// AddEdge registers an edgeserver.
func (c *CDN) AddEdge(cfg EdgeConfig) (*Edge, error) {
	e, err := NewEdge(cfg, c.origin)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, existing := range c.edges {
		if existing.ID == e.ID {
			return nil, fmt.Errorf("cdn: duplicate edge id %q", e.ID)
		}
	}
	c.edges = append(c.edges, e)
	return e, nil
}

// Edges returns the registered edgeservers.
func (c *CDN) Edges() []*Edge {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Edge(nil), c.edges...)
}

// EdgeFor returns the closest healthy edgeserver for a client region: an
// edge in the same region if one exists, otherwise the one with the lowest
// client-facing base RTT. Ties break deterministically by id.
func (c *CDN) EdgeFor(region string) (*Edge, error) {
	ranked, err := c.rankedEdges(region)
	if err != nil {
		return nil, err
	}
	return ranked[0], nil
}

// rankedEdges orders healthy edges by preference for a region: same-region
// edges first (by id), then ascending base RTT (ties by id).
func (c *CDN) rankedEdges(region string) ([]*Edge, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.edges) == 0 {
		return nil, fmt.Errorf("cdn: no edgeservers registered")
	}
	var healthy []*Edge
	for _, e := range c.edges {
		if !e.Failed() {
			healthy = append(healthy, e)
		}
	}
	if len(healthy) == 0 {
		return nil, fmt.Errorf("cdn: every edgeserver is down")
	}
	sort.SliceStable(healthy, func(i, j int) bool {
		a, b := healthy[i], healthy[j]
		aHome, bHome := a.Region == region, b.Region == region
		if aHome != bHome {
			return aHome
		}
		if a.Server.BaseRTT != b.Server.BaseRTT {
			return a.Server.BaseRTT < b.Server.BaseRTT
		}
		return a.ID < b.ID
	})
	return healthy, nil
}

// Retrieval is the accounting result of one simulated object download.
type Retrieval struct {
	Data     []byte
	EdgeID   string
	Time     time.Duration
	CacheHit bool
}

// Retrieve fetches path for a client in region over the given access link,
// with `concurrent` simultaneous downloads sharing the chosen edge. The
// returned time combines edge contention, the client link, and any origin
// fill. If the preferred edge fails mid-flight the request fails over to
// the next-closest healthy edge; only a missing object is terminal.
func (c *CDN) Retrieve(region, path string, client netsim.Link, concurrent int) (Retrieval, error) {
	ranked, err := c.rankedEdges(region)
	if err != nil {
		return Retrieval{}, err
	}
	var lastErr error
	for _, edge := range ranked {
		data, fill, miss, err := edge.Fetch(path)
		if err != nil {
			if edge.Failed() {
				lastErr = err
				continue // fail over to the next edge
			}
			return Retrieval{}, err // object-level error: no edge can help
		}
		t, err := edge.Server.RetrievalTime(int64(len(data)), concurrent, client)
		if err != nil {
			return Retrieval{}, fmt.Errorf("cdn: edge %s retrieval: %w", edge.ID, err)
		}
		return Retrieval{Data: data, EdgeID: edge.ID, Time: t + fill, CacheHit: !miss}, nil
	}
	return Retrieval{}, fmt.Errorf("cdn: all edges failed for %s: %w", path, lastErr)
}

// Prefetch pushes an object into every healthy edge cache, as a publisher
// does after uploading new PAD modules so first clients hit warm caches.
// It returns the number of edges warmed.
func (c *CDN) Prefetch(path string) (int, error) {
	if _, err := c.origin.Get(path); err != nil {
		return 0, err
	}
	warmed := 0
	for _, e := range c.Edges() {
		if e.Failed() {
			continue
		}
		if _, _, _, err := e.Fetch(path); err != nil {
			return warmed, fmt.Errorf("cdn: prefetch to %s: %w", e.ID, err)
		}
		warmed++
	}
	return warmed, nil
}

// RetrieveCentralized fetches path directly from the origin with
// `concurrent` simultaneous downloads sharing its uplink — the baseline of
// Figure 9(b).
func (c *CDN) RetrieveCentralized(path string, client netsim.Link, concurrent int) (Retrieval, error) {
	data, err := c.origin.Get(path)
	if err != nil {
		return Retrieval{}, err
	}
	t, err := c.origin.Server.RetrievalTime(int64(len(data)), concurrent, client)
	if err != nil {
		return Retrieval{}, fmt.Errorf("cdn: centralized retrieval: %w", err)
	}
	return Retrieval{Data: data, EdgeID: "origin", Time: t, CacheHit: false}, nil
}

// DefaultTopology builds the experimental topology: an origin with a
// modest uplink (the centralized PAD server) and `edges` edgeservers
// spread across regions with large uplinks, as PlanetLab nodes close to
// clients. Region names are "region-0" .. "region-(edges-1)".
func DefaultTopology(edges int) (*CDN, error) {
	if edges < 1 {
		return nil, fmt.Errorf("cdn: topology needs >= 1 edge, got %d", edges)
	}
	origin, err := NewOrigin(netsim.SharedServer{
		Name: "origin", UplinkKbps: 10000, Rho: netsim.DefaultRho, BaseRTT: 40 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	c, err := New(origin)
	if err != nil {
		return nil, err
	}
	for i := 0; i < edges; i++ {
		_, err := c.AddEdge(EdgeConfig{
			ID:     fmt.Sprintf("edge-%02d", i),
			Region: fmt.Sprintf("region-%d", i),
			Server: netsim.SharedServer{
				Name:       fmt.Sprintf("edge-%02d", i),
				UplinkKbps: 100000,
				Rho:        netsim.DefaultRho,
				BaseRTT:    5 * time.Millisecond,
			},
			CacheBytes: 64 << 20,
			OriginRTT:  40 * time.Millisecond,
			OriginKbps: 10000,
		})
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}
