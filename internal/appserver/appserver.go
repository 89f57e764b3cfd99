// Package appserver implements Fractal's application server: it stores
// versioned adaptive content, pre-deploys every PAD (Section 3.1 assumes
// "the application server has already deployed all PADs in advance"),
// measures the per-PAD overhead vectors (Equation 1) on its own corpus,
// pushes AppMeta to the adaptation proxy, publishes PAD modules to the
// CDN origin, and answers APP_REQ with content encoded by the negotiated
// protocol — either reactively (encode per request) or proactively
// (difference precomputed, the Figure 10(d)/11(c) server strategy).
package appserver

import (
	"crypto/sha1"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fractal/internal/cdn"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
	"fractal/internal/syncx"
	"fractal/internal/transcode"
	"fractal/internal/workload"
)

// Strategy selects how adaptive content is produced.
type Strategy int

const (
	// Reactive computes each encoding on demand: small memory, CPU per
	// request (the default in Figures 10(a–c)/11(b)). Protocols whose
	// payload ignores the client's version (codec.OldIndependent: Direct,
	// Gzip) are encoded once per content version and the payload is
	// reused until the next InstallCorpus; differencing protocols encode
	// per request.
	Reactive Strategy = iota
	// Proactive precomputes encodings so no server-side computing happens
	// at request time (Figures 10(d)/11(c)).
	Proactive
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Proactive {
		return "proactive"
	}
	return "reactive"
}

// pad couples a deployed PAD module with its native protocol
// implementation (the server always runs native code; mobile code is for
// clients).
type pad struct {
	module *mobilecode.Module
	impl   codec.Costed
	meta   core.PADMeta
}

// Stats counts server activity. Every successful request is counted in
// exactly one of ReactiveEncod (a codec ran), PrecomputeHits (answered
// from the proactive store) or MemoHits (answered from the memo of
// version-independent payloads, including a request that waited for a
// concurrent encode of the same payload); a failed request counts only
// in Requests.
type Stats struct {
	Requests       int64
	ReactiveEncod  int64
	PrecomputeHits int64
	MemoHits       int64
}

// Accounted reports whether Requests = ReactiveEncod + PrecomputeHits +
// MemoHits, which holds whenever no counted request failed.
func (st Stats) Accounted() bool {
	return st.Requests == st.ReactiveEncod+st.PrecomputeHits+st.MemoHits
}

// serverChunkCacheEntries bounds the server's shared chunk-index cache.
// The corpus is 75 pages × a few versions × two differencing protocols;
// 512 entries keeps every live (version, config) index resident while an
// LRU bound still protects a server holding far more content.
const serverChunkCacheEntries = 512

// Server is one Fractal application server instance. Server is safe for
// concurrent use: all mutable state (resources, PADs, transcoders, the
// proactive store, the memo) is guarded by a single RWMutex and the
// counters are atomic, so many sessions may encode and negotiate at once.
// The chunk-index cache shared by the differencing PADs is internally
// synchronized.
type Server struct {
	appID  string
	signer *mobilecode.Signer
	chunks *codec.ChunkCache

	mu          sync.RWMutex
	resources   map[string][][]byte             // resource -> versions (index 0 = v1)
	pads        map[string]*pad                 // by PAD id
	protoPAD    map[string]string               // protocol name -> PAD id
	transcoders map[string]transcode.Transcoder // content-adaptation PADs by id
	strategy    Strategy
	// precomputed holds the proactive encodings, one per encKey.
	precomputed map[encKey][]byte
	// memo holds one payload per (transcoder, old-independent module,
	// resource) — have is always 0 — tagged with the content version it
	// encodes; it is served only while that version is current, so it is
	// bounded by the corpus and needs no eviction.
	memo map[encKey]memoEntry
	// memoFlight collapses concurrent memo misses for one payload.
	memoFlight syncx.Group[memoFlightKey, memoEntry]

	requests    atomic.Int64
	reactive    atomic.Int64
	precompHits atomic.Int64
	memoHits    atomic.Int64
}

// encKey names one stored encoding: the transcoder applied to the content
// first ("" = none), the communication PAD's module id, the resource, and
// the version the client holds.
type encKey struct {
	transcoder, module, resource string
	have                         int
}

// memoEntry is a memoized payload and the content version it encodes.
type memoEntry struct {
	version      int
	payload      []byte
	contentBytes int64 // size of the (transcoded) content it encodes
}

// memoFlightKey names one encode of a memo entry: concurrent misses
// collapse only when they want the same content version.
type memoFlightKey struct {
	key     encKey
	version int
}

// New builds an application server. The signer is the code-signing
// identity whose public key clients must trust.
func New(appID string, signer *mobilecode.Signer) (*Server, error) {
	if appID == "" {
		return nil, fmt.Errorf("appserver: needs an application id")
	}
	if signer == nil {
		return nil, fmt.Errorf("appserver: needs a signing identity")
	}
	return &Server{
		appID:       appID,
		signer:      signer,
		chunks:      codec.NewChunkCache(serverChunkCacheEntries),
		resources:   map[string][][]byte{},
		pads:        map[string]*pad{},
		protoPAD:    map[string]string{},
		transcoders: map[string]transcode.Transcoder{},
		precomputed: map[encKey][]byte{},
		memo:        map[encKey]memoEntry{},
	}, nil
}

// AppID returns the application identifier.
func (s *Server) AppID() string { return s.appID }

// SetStrategy switches between reactive and proactive adaptive content.
// Switching to Proactive precomputes every (PAD, resource, version-1)
// encoding immediately.
func (s *Server) SetStrategy(st Strategy) error {
	if st != Reactive && st != Proactive {
		return fmt.Errorf("appserver: unknown strategy %d", st)
	}
	s.mu.Lock()
	s.strategy = st
	s.mu.Unlock()
	if st == Proactive {
		return s.precomputeAll()
	}
	return nil
}

// Strategy returns the current content strategy.
func (s *Server) Strategy() Strategy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.strategy
}

// InstallCorpus loads version chains built from a workload corpus: each
// page contributes its serialized versions in order. Calling it again
// appends further versions to the existing chains (a content update on a
// live server); with the proactive strategy active, the precomputed store
// is rebuilt so no stale encodings survive the update. Memoized payloads
// of the updated resources become stale by their version tag and are
// re-encoded on their next request.
func (s *Server) InstallCorpus(versions ...*workload.Corpus) error {
	if len(versions) == 0 {
		return fmt.Errorf("appserver: no corpus versions to install")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base := map[string]int{}
	for vi, c := range versions {
		for _, p := range c.Pages {
			b, seen := base[p.ID]
			if !seen {
				b = len(s.resources[p.ID])
				base[p.ID] = b
			}
			chain := s.resources[p.ID]
			if len(chain) != b+vi {
				return fmt.Errorf("appserver: resource %s has %d versions installing update %d of this batch (base %d)", p.ID, len(chain), vi+1, b)
			}
			s.resources[p.ID] = append(chain, p.Bytes())
		}
	}
	if s.strategy == Proactive {
		s.precomputed = map[encKey][]byte{}
		return s.precomputeAllLocked()
	}
	return nil
}

// Resources returns the number of installed resources.
func (s *Server) Resources() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.resources)
}

// Current returns a resource's newest version data and number.
func (s *Server) Current(resource string) ([]byte, int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain, ok := s.resources[resource]
	if !ok || len(chain) == 0 {
		return nil, 0, fmt.Errorf("appserver: no resource %q", resource)
	}
	return chain[len(chain)-1], len(chain), nil
}

// version returns a specific version's data (1-indexed), nil for 0.
func (s *Server) version(resource string, v int) ([]byte, error) {
	if v == 0 {
		return nil, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain, ok := s.resources[resource]
	if !ok || v < 1 || v > len(chain) {
		return nil, fmt.Errorf("appserver: resource %q has no version %d", resource, v)
	}
	return chain[v-1], nil
}

// DeployPADs builds, signs, and installs the case-study PAD set at the
// given module version.
func (s *Server) DeployPADs(moduleVersion string) error {
	specs := mobilecode.BuiltinSpecs()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, spec := range specs {
		m, err := mobilecode.BuildModule(spec, moduleVersion, s.signer)
		if err != nil {
			return fmt.Errorf("appserver: building %s: %w", spec.ID, err)
		}
		// Static verification before registration: a module the server
		// cannot prove safe is never published, measured, or pushed to the
		// proxy — the same gate clients apply on deployment.
		if _, err := verify.Module(m, mobilecode.DefaultSandbox()); err != nil {
			return fmt.Errorf("appserver: %s: %w", spec.ID, err)
		}
		impl, err := codec.New(spec.Protocol)
		if err != nil {
			return fmt.Errorf("appserver: native impl for %s: %w", spec.ID, err)
		}
		// Differencing protocols share the server-wide chunk-index cache:
		// each installed version is chunked and digested once, not once per
		// request (or once per precompute pass).
		if cu, ok := codec.Codec(impl).(codec.ChunkCacheUser); ok {
			cu.UseChunkCache(s.chunks)
		}
		s.pads[m.ID] = &pad{module: m, impl: impl}
		s.protoPAD[spec.Protocol] = m.ID
	}
	return nil
}

// ChunkCacheStats reports the shared chunk-index cache's effectiveness —
// on a warm server Hits should dwarf Misses, the whole point of the
// hot-path engine.
func (s *Server) ChunkCacheStats() codec.ChunkCacheStats {
	return s.chunks.Stats()
}

// PADIDs returns the deployed PAD ids.
func (s *Server) PADIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.pads))
	for id := range s.pads {
		out = append(out, id)
	}
	return out
}

// MeasureAppMeta pre-tests every deployed PAD against up to samplePages of
// the installed corpus (latest version against its predecessor) to fill
// the PADMeta overhead vectors, producing the AppMeta to push to the
// adaptation proxy. Digest and URL are filled from the module and the
// CDN publishing convention.
func (s *Server) MeasureAppMeta(samplePages int) (core.AppMeta, error) {
	if samplePages < 1 {
		return core.AppMeta{}, fmt.Errorf("appserver: need >= 1 sample page, got %d", samplePages)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.pads) == 0 {
		return core.AppMeta{}, fmt.Errorf("appserver: no PADs deployed")
	}
	// Collect sample (old, cur) pairs deterministically.
	type pair struct{ old, cur []byte }
	var pairs []pair
	ids := make([]string, 0, len(s.resources))
	for id := range s.resources {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if len(pairs) >= samplePages {
			break
		}
		chain := s.resources[id]
		if len(chain) == 0 {
			continue
		}
		cur := chain[len(chain)-1]
		var old []byte
		if len(chain) > 1 {
			old = chain[len(chain)-2]
		}
		pairs = append(pairs, pair{old: old, cur: cur})
	}
	if len(pairs) == 0 {
		return core.AppMeta{}, fmt.Errorf("appserver: no content installed to measure against")
	}

	app := core.AppMeta{AppID: s.appID}
	padIDs := make([]string, 0, len(s.pads))
	for id := range s.pads {
		// Transcoder PADs belong to the content-adaptation topology
		// (MeasureContentAdaptationAppMeta), not the flat one.
		if _, isTC := s.transcoders[id]; isTC {
			continue
		}
		padIDs = append(padIDs, id)
	}
	sort.Strings(padIDs)
	for _, id := range padIDs {
		p := s.pads[id]
		var traffic, upstream, content int64
		for _, pr := range pairs {
			payload, err := p.impl.Encode(pr.old, pr.cur)
			if err != nil {
				return core.AppMeta{}, fmt.Errorf("appserver: measuring %s: %w", id, err)
			}
			traffic += int64(len(payload))
			content += int64(len(pr.cur))
			if uc, ok := codec.Codec(p.impl).(codec.UpstreamCoster); ok {
				upstream += uc.UpstreamBytes(pr.old)
			}
		}
		n := int64(len(pairs))
		avgContent := content / n
		cost := p.impl.Cost()
		meta := core.PADMeta{
			ID:       p.module.ID,
			Version:  p.module.Version,
			Protocol: p.impl.Name(),
			Size:     p.module.Size(),
			Digest:   p.module.Digest,
			URL:      "/pads/" + p.module.ID,
			Overhead: core.PADOverhead{
				ServerCompStd: cost.ServerTime(avgContent),
				ClientCompStd: cost.ClientTime(avgContent),
				TrafficBytes:  traffic / n,
				UpstreamBytes: upstream / n,
			},
		}
		p.meta = meta
		app.PADs = append(app.PADs, meta)
	}
	return app, nil
}

// PublishPADs uploads every deployed PAD module to the CDN origin under
// its metadata URL.
func (s *Server) PublishPADs(origin *cdn.Origin) error {
	if origin == nil {
		return fmt.Errorf("appserver: nil CDN origin")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, p := range s.pads {
		packed, err := p.module.Pack()
		if err != nil {
			return fmt.Errorf("appserver: packing %s: %w", id, err)
		}
		if err := origin.Publish("/pads/"+id, packed); err != nil {
			return fmt.Errorf("appserver: publishing %s: %w", id, err)
		}
	}
	return nil
}

// TrustedKey returns the signing identity's public key for client trust
// lists.
func (s *Server) TrustedKey() (string, []byte) {
	return s.signer.Entity, s.signer.PublicKey()
}

// precomputeAll fills the proactive cache for every (transcoder, PAD,
// resource) combination against each predecessor version and the
// cold-start case.
func (s *Server) precomputeAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.precomputeAllLocked()
}

// precomputeAllLocked is precomputeAll with s.mu already held.
func (s *Server) precomputeAllLocked() error {
	tcs := []string{""}
	for id := range s.transcoders {
		tcs = append(tcs, id)
	}
	for res, chain := range s.resources {
		curV := len(chain)
		for _, tcID := range tcs {
			cur, err := s.transformLocked(tcID, chain[curV-1])
			if err != nil {
				return err
			}
			for id, p := range s.pads {
				for have := 0; have <= curV; have++ {
					var old []byte
					if have > 0 {
						if old, err = s.transformLocked(tcID, chain[have-1]); err != nil {
							return err
						}
					}
					payload, err := p.impl.Encode(old, cur)
					if err != nil {
						return fmt.Errorf("appserver: precomputing %s/%s/%s@%d: %w", tcID, id, res, have, err)
					}
					s.precomputed[encKey{transcoder: tcID, module: id, resource: res, have: have}] = payload
				}
			}
		}
	}
	return nil
}

// transformLocked applies a registered transcoder ("" = none); the caller
// holds s.mu.
func (s *Server) transformLocked(tcID string, content []byte) ([]byte, error) {
	if tcID == "" {
		return content, nil
	}
	tc, ok := s.transcoders[tcID]
	if !ok {
		return nil, fmt.Errorf("appserver: unknown transcoder PAD %q", tcID)
	}
	out, err := tc.Transform(content)
	if err != nil {
		return nil, fmt.Errorf("appserver: transcoding with %s: %w", tcID, err)
	}
	return out, nil
}

// EncodeResult is the outcome of serving one request. Payload is
// read-only: it may alias the server's stored content or a memoized
// payload shared with other requests.
type EncodeResult struct {
	Payload      []byte
	Version      int
	PADID        string
	ContentBytes int64 // size of the full current version
	Precomputed  bool
}

// Encode serves a resource for a client that negotiated the given PAD
// path and holds haveVersion (0 = nothing). The path may contain one
// content-adaptation PAD (applied to the content first) and must contain
// one communication-optimization PAD. Context-specific metadata ids of the
// form "<module-id>@<context>" resolve to their module.
func (s *Server) Encode(padIDs []string, resource string, haveVersion int) (EncodeResult, error) {
	s.requests.Add(1)
	s.mu.RLock()
	var chosen *pad
	var chosenID, tcID string
	for _, id := range padIDs {
		if _, ok := s.transcoders[id]; ok {
			if tcID != "" && tcID != id {
				s.mu.RUnlock()
				return EncodeResult{}, fmt.Errorf("appserver: path names two transcoders (%s, %s)", tcID, id)
			}
			tcID = id
			continue
		}
		if chosen != nil {
			continue
		}
		if p, ok := s.pads[moduleOf(id)]; ok {
			chosen, chosenID = p, id
		}
	}
	strategy := s.strategy
	s.mu.RUnlock()
	if chosen == nil {
		return EncodeResult{}, fmt.Errorf("appserver: none of the negotiated PADs %v is deployed", padIDs)
	}
	cur, curV, err := s.Current(resource)
	if err != nil {
		return EncodeResult{}, err
	}
	if haveVersion < 0 || haveVersion > curV {
		return EncodeResult{}, fmt.Errorf("appserver: client claims version %d of %s, newest is %d", haveVersion, resource, curV)
	}
	key := encKey{transcoder: tcID, module: moduleOf(chosenID), resource: resource}
	// Note haveVersion may equal curV (client already current): the old
	// version is then the current content itself, and differencing
	// protocols collapse the payload to nearly nothing.
	if strategy == Proactive {
		pk := key
		pk.have = haveVersion
		s.mu.RLock()
		payload, ok := s.precomputed[pk]
		s.mu.RUnlock()
		if ok {
			s.precompHits.Add(1)
			return EncodeResult{Payload: payload, Version: curV, PADID: chosenID, ContentBytes: int64(len(cur)), Precomputed: true}, nil
		}
	}
	if _, ok := codec.Codec(chosen.impl).(codec.OldIndependent); ok {
		e, err := s.memoized(key, chosen.impl, cur, curV)
		if err != nil {
			return EncodeResult{}, fmt.Errorf("appserver: encoding %s with %s: %w", resource, chosenID, err)
		}
		return EncodeResult{Payload: e.payload, Version: curV, PADID: chosenID, ContentBytes: e.contentBytes}, nil
	}
	old, err := s.version(resource, haveVersion)
	if err != nil {
		return EncodeResult{}, err
	}
	s.mu.RLock()
	cur, err = s.transformLocked(tcID, cur)
	if err == nil && old != nil {
		old, err = s.transformLocked(tcID, old)
	}
	s.mu.RUnlock()
	if err != nil {
		return EncodeResult{}, err
	}
	payload, err := chosen.impl.Encode(old, cur)
	if err != nil {
		return EncodeResult{}, fmt.Errorf("appserver: encoding %s with %s: %w", resource, chosenID, err)
	}
	s.reactive.Add(1)
	return EncodeResult{Payload: payload, Version: curV, PADID: chosenID, ContentBytes: int64(len(cur))}, nil
}

// memoized returns the payload of an old-independent codec for content
// version curV (whose bytes are cur, before transcoding). A memo entry is
// served only while its version tag is curV; otherwise one caller per
// (key, version) encodes while concurrent misses wait for its result, and
// the entry is replaced unless a newer version got there first.
func (s *Server) memoized(key encKey, impl codec.Codec, cur []byte, curV int) (memoEntry, error) {
	if e, ok := s.memoLookup(key, curV); ok {
		s.memoHits.Add(1)
		return e, nil
	}
	encoded := false
	e, err, _ := s.memoFlight.Do(memoFlightKey{key: key, version: curV}, func() (memoEntry, error) {
		// A flight for this version may have landed between the lookup
		// above and Do.
		if e, ok := s.memoLookup(key, curV); ok {
			return e, nil
		}
		s.mu.RLock()
		tcur, err := s.transformLocked(key.transcoder, cur)
		s.mu.RUnlock()
		if err != nil {
			return memoEntry{}, err
		}
		payload, err := impl.Encode(nil, tcur)
		if err != nil {
			return memoEntry{}, err
		}
		encoded = true
		e := memoEntry{version: curV, payload: payload, contentBytes: int64(len(tcur))}
		s.mu.Lock()
		if prev, ok := s.memo[key]; !ok || prev.version < curV {
			s.memo[key] = e
		}
		s.mu.Unlock()
		return e, nil
	})
	if err != nil {
		return memoEntry{}, err
	}
	if encoded {
		s.reactive.Add(1)
	} else {
		s.memoHits.Add(1)
	}
	return e, nil
}

// memoLookup returns the memo entry for key if it encodes version v.
func (s *Server) memoLookup(key encKey, v int) (memoEntry, bool) {
	s.mu.RLock()
	e, ok := s.memo[key]
	s.mu.RUnlock()
	return e, ok && e.version == v
}

// moduleOf strips a context suffix from a metadata PAD id.
func moduleOf(metaID string) string {
	if i := strings.IndexByte(metaID, '@'); i >= 0 {
		return metaID[:i]
	}
	return metaID
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:       s.requests.Load(),
		ReactiveEncod:  s.reactive.Load(),
		PrecomputeHits: s.precompHits.Load(),
		MemoHits:       s.memoHits.Load(),
	}
}

// DigestOf is a convenience for tests: SHA-1 of a blob.
func DigestOf(b []byte) [sha1.Size]byte { return sha1.Sum(b) }
