// Package proxy implements Fractal's adaptation proxy (Section 3.2): a
// negotiation manager that keeps one protocol adaptation tree per
// application and runs the adaptation path search, and a distribution
// manager that caches negotiation results, inserts digest/URL information,
// hides tree links, and handles the network exchange with clients.
package proxy

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
	"fractal/internal/syncx"
)

// NegotiationManager maps client metadata to the PADs the client needs.
// It is safe for concurrent use; the PAT registry is guarded by an
// RWMutex so negotiations may proceed while applications register.
type NegotiationManager struct {
	mu    sync.RWMutex
	pats  map[string]*core.PAT
	model core.OverheadModel
}

// NewNegotiationManager builds a manager around an overhead model.
func NewNegotiationManager(model core.OverheadModel) (*NegotiationManager, error) {
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	return &NegotiationManager{pats: map[string]*core.PAT{}, model: model}, nil
}

// PushAppMeta installs or replaces an application's protocol adaptation
// topology, as the application server does "when the protocol adaptation
// topology is first created or changed later".
func (nm *NegotiationManager) PushAppMeta(app core.AppMeta) error {
	pat, err := core.BuildPAT(app)
	if err != nil {
		return fmt.Errorf("proxy: rejecting AppMeta: %w", err)
	}
	nm.mu.Lock()
	defer nm.mu.Unlock()
	nm.pats[app.AppID] = pat
	return nil
}

// Apps returns the application ids with installed topologies.
func (nm *NegotiationManager) Apps() []string {
	nm.mu.RLock()
	defer nm.mu.RUnlock()
	out := make([]string, 0, len(nm.pats))
	for id := range nm.pats {
		out = append(out, id)
	}
	return out
}

// Negotiate runs the adaptation path search for one client environment.
// sessionRequests amortizes the PAD download term; values < 1 are treated
// as 1.
func (nm *NegotiationManager) Negotiate(appID string, env core.Env, sessionRequests int) (core.PathResult, error) {
	nm.mu.RLock()
	pat, ok := nm.pats[appID]
	model := nm.model
	nm.mu.RUnlock()
	if !ok {
		return core.PathResult{}, fmt.Errorf("proxy: no protocol adaptation topology for app %q", appID)
	}
	if sessionRequests > 0 {
		model.SessionRequests = sessionRequests
	}
	res, err := core.FindPath(pat, model, env)
	if err != nil {
		return core.PathResult{}, fmt.Errorf("proxy: app %s: %w", appID, err)
	}
	return res, nil
}

// Stats are the proxy's negotiation counters. On every successful
// negotiation exactly one of CacheHits, Searches, or CollapsedSearches is
// incremented, so Negotiations = CacheHits + Searches + CollapsedSearches
// when all negotiations succeed.
type Stats struct {
	Negotiations   int64
	CacheHits      int64
	TopologyPushes int64
	// Searches counts path searches actually executed on cache misses.
	Searches int64
	// CollapsedSearches counts negotiations that joined another caller's
	// in-flight search for the same cache key instead of running their own.
	CollapsedSearches int64
	// TotalSearchNanos accumulates time spent in cache-miss searches.
	TotalSearchNanos int64
	// VerifierRejections counts topology pushes refused because the static
	// bytecode verifier rejected a referenced PAD module (only gated pushes
	// — see SetModuleSource — can increment it).
	VerifierRejections int64
}

// Proxy couples the negotiation manager with the distribution manager's
// adaptation cache and the INP server front end. Proxy is safe for
// concurrent use: the authorizer swap is guarded by its own RWMutex,
// stats are atomic, and the manager and cache synchronize themselves.
type Proxy struct {
	nm    *NegotiationManager
	cache *core.AdaptationCache
	// sf collapses concurrent cache-miss negotiations for the same cache
	// key into one path search (the negotiation-plane singleflight).
	sf syncx.Group[core.CacheKey, []core.PADMeta]

	authzMu sync.RWMutex
	authz   Authorizer

	srcMu         sync.RWMutex
	moduleSrc     ModuleSourceFunc
	verifySandbox mobilecode.Sandbox

	negotiations       atomic.Int64
	cacheHits          atomic.Int64
	topologyPushes     atomic.Int64
	searches           atomic.Int64
	collapsedSearches  atomic.Int64
	searchNanos        atomic.Int64
	verifierRejections atomic.Int64
}

// ModuleSourceFunc retrieves the packed module bytes behind a PADMeta —
// typically the CDN origin the application server publishes to. Installed
// with SetModuleSource to gate topology registration on bytecode
// verification.
type ModuleSourceFunc func(meta core.PADMeta) ([]byte, error)

// New builds a proxy with the given overhead model and adaptation-cache
// capacity.
func New(model core.OverheadModel, cacheCapacity int) (*Proxy, error) {
	nm, err := NewNegotiationManager(model)
	if err != nil {
		return nil, err
	}
	cache, err := core.NewAdaptationCache(cacheCapacity)
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	return &Proxy{nm: nm, cache: cache}, nil
}

// SetModuleSource arms the registration gate: every subsequent PushAppMeta
// fetches each referenced PAD's packed module through fetch, checks it
// against the advertised digest, and runs the static bytecode verifier on
// its programs under sb before any metadata may enter the PAT. A nil fetch
// disarms the gate (metadata-only pushes, the historical behaviour, for
// deployments where the proxy cannot reach the module store).
func (p *Proxy) SetModuleSource(fetch ModuleSourceFunc, sb mobilecode.Sandbox) error {
	if fetch != nil {
		if err := sb.Validate(); err != nil {
			return fmt.Errorf("proxy: module source sandbox: %w", err)
		}
	}
	p.srcMu.Lock()
	p.moduleSrc = fetch
	p.verifySandbox = sb
	p.srcMu.Unlock()
	return nil
}

// verifyModules is the armed registration gate: malformed modules never
// enter the PAT.
func (p *Proxy) verifyModules(app core.AppMeta) error {
	p.srcMu.RLock()
	fetch, sb := p.moduleSrc, p.verifySandbox
	p.srcMu.RUnlock()
	if fetch == nil {
		return nil
	}
	for _, meta := range app.PADs {
		packed, err := fetch(meta)
		if err != nil {
			return fmt.Errorf("proxy: app %s: fetching module for PAD %s: %w", app.AppID, meta.ID, err)
		}
		m, err := mobilecode.Unpack(packed)
		if err != nil {
			return fmt.Errorf("proxy: app %s: PAD %s: %w", app.AppID, meta.ID, err)
		}
		if !mobilecode.DigestEqual(m.Digest, meta.Digest) {
			return fmt.Errorf("proxy: app %s: PAD %s module digest does not match advertised metadata", app.AppID, meta.ID)
		}
		if _, err := verify.Module(m, sb); err != nil {
			p.verifierRejections.Add(1)
			return fmt.Errorf("proxy: app %s: rejecting topology: %w", app.AppID, err)
		}
	}
	return nil
}

// PushAppMeta installs a topology and invalidates cached negotiations for
// that application. With a module source installed (SetModuleSource), every
// referenced PAD module is fetched and statically verified first.
func (p *Proxy) PushAppMeta(app core.AppMeta) error {
	if err := p.verifyModules(app); err != nil {
		return err
	}
	if err := p.nm.PushAppMeta(app); err != nil {
		return err
	}
	p.cache.Invalidate(app.AppID)
	p.topologyPushes.Add(1)
	return nil
}

// Negotiate is the full proxy-side negotiation for an anonymous client:
// consult the adaptation cache, run the path search on a miss, then
// prepare client-facing metadata (redacted links, URL filled). This is the
// in-process entry point; ServeConn wraps it with the INP exchange.
// Authenticated clients use NegotiateFor.
func (p *Proxy) Negotiate(appID string, env core.Env, sessionRequests int) ([]core.PADMeta, error) {
	pads, _, err := p.NegotiateFor("", appID, env, sessionRequests)
	return pads, err
}

// prepareForClient is the distribution manager's post-processing: hide
// parent/child links and ensure each PAD has a download URL.
func prepareForClient(pads []core.PADMeta) []core.PADMeta {
	out := make([]core.PADMeta, 0, len(pads))
	for _, p := range pads {
		q := p.Redacted()
		if q.URL == "" {
			q.URL = "/pads/" + q.ID
		}
		out = append(out, q)
	}
	return out
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Negotiations:       p.negotiations.Load(),
		CacheHits:          p.cacheHits.Load(),
		TopologyPushes:     p.topologyPushes.Load(),
		Searches:           p.searches.Load(),
		CollapsedSearches:  p.collapsedSearches.Load(),
		TotalSearchNanos:   p.searchNanos.Load(),
		VerifierRejections: p.verifierRejections.Load(),
	}
}

// CacheStats exposes the adaptation cache counters.
func (p *Proxy) CacheStats() core.CacheStats { return p.cache.Stats() }
