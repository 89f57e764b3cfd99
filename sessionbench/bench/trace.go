package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"fractal/internal/client"
	"fractal/internal/core"
	"fractal/internal/experiment"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
)

// The traced run records a span at each boundary the benchmark can see:
// the op, the client calls it makes (client.New, EnsureProtocol, Request)
// and the three interfaces client.New accepts. Server-side time inside
// each RPC comes from a layer pass that replays the recorded inputs, in
// order, through the same public functions on a twin deployment built by
// the same set-up code, so cache hits and misses recur.

type spanKind uint8

const (
	spanOp spanKind = iota
	spanClientNew
	spanEnsure
	spanRequest
	spanPush
	spanInstall
	// RPC spans: recorded with their inputs and replayed by the layer pass.
	spanNegotiate
	spanPADFetch
	spanAppFetch
)

func (k spanKind) rpc() bool { return k >= spanNegotiate }

type span struct {
	kind       spanKind
	op         int64 // -1 during set-up
	seq        int64 // global start order of RPC and push spans
	start, end time.Duration
	// proto is the protocol of a request span, or the PAD id of the reply
	// an application fetch received.
	proto string

	// Recorded inputs and outputs.
	appID      string
	env        core.Env
	sessReq    int
	pad        core.PADMeta
	packed     []byte
	req        inp.AppReq
	repVersion int

	// Filled by the layer pass.
	replay                          time.Duration
	hit                             bool
	unpack, signature, verify, inst time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder keeps one worker's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	seq   *atomic.Int64
	op    int64
	spans []span
	// off stops recording; the wrappers then only forward.
	off bool
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) add(s span) {
	s.op = r.op
	r.spans = append(r.spans, s)
}

// tagProto names the protocol of the op's last span of the given kind.
func (r *recorder) tagProto(kind spanKind, proto string) {
	for i := len(r.spans) - 1; i >= 0 && r.spans[i].op == r.op; i-- {
		if r.spans[i].kind == kind {
			r.spans[i].proto = proto
			return
		}
	}
}

func (r *recorder) begin(kind spanKind) span {
	return span{kind: kind, seq: r.seq.Add(1), start: r.now()}
}

type tracedNegotiator struct {
	inner client.Negotiator
	rec   *recorder
}

func (t tracedNegotiator) Negotiate(appID string, env core.Env, n int) ([]core.PADMeta, error) {
	if t.rec.off {
		return t.inner.Negotiate(appID, env, n)
	}
	s := t.rec.begin(spanNegotiate)
	pads, err := t.inner.Negotiate(appID, env, n)
	s.end = t.rec.now()
	s.appID, s.env, s.sessReq = appID, env, n
	t.rec.add(s)
	return pads, err
}

type tracedPADFetcher struct {
	inner client.PADFetcher
	rec   *recorder
}

func (t tracedPADFetcher) FetchPAD(meta core.PADMeta) ([]byte, error) {
	if t.rec.off {
		return t.inner.FetchPAD(meta)
	}
	s := t.rec.begin(spanPADFetch)
	packed, err := t.inner.FetchPAD(meta)
	s.end = t.rec.now()
	s.pad, s.packed = meta, packed
	t.rec.add(s)
	return packed, err
}

type tracedContent struct {
	inner client.ContentFetcher
	rec   *recorder
}

func (t tracedContent) FetchContent(req inp.AppReq) (inp.AppRep, error) {
	if t.rec.off {
		return t.inner.FetchContent(req)
	}
	s := t.rec.begin(spanAppFetch)
	rep, err := t.inner.FetchContent(req)
	s.end = t.rec.now()
	s.req, s.repVersion, s.proto = req, rep.Version, rep.PADID
	t.rec.add(s)
	return rep, err
}

// layerPass replays recorded RPCs and pushes, in start order, on a twin
// deployment, timing the server-side public function of each. The traced
// window is cut into slices and each slice is replayed right after it ran,
// so live and replayed times are measured seconds apart on the same host.
type layerPass struct {
	d         *deployment
	tw        *experiment.Setup
	sandbox   mobilecode.Sandbox
	installed int   // corpus versions installed on the twin
	done      []int // per recorder, the spans already replayed
	// mismatches counts replayed application fetches whose version differs
	// from the live reply.
	mismatches int
}

func newLayerPass(d *deployment, wl workload, recorders int) (*layerPass, error) {
	tw, err := experiment.NewSetup(d.setup.Config)
	if err != nil {
		return nil, fmt.Errorf("layer pass: building the twin: %w", err)
	}
	if err := wl.prime(tw.Proxy, tw.AppMeta, d.setup.Config); err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	return &layerPass{d: d, tw: tw, sandbox: mobilecode.DefaultSandbox(), installed: 2, done: make([]int, recorders)}, nil
}

// catchUp replays every span recorded since the last call. The recorders'
// workers must be idle.
func (lp *layerPass) catchUp(recs []*recorder) error {
	var order []*span
	for i, r := range recs {
		for j := lp.done[i]; j < len(r.spans); j++ {
			if s := &r.spans[j]; s.kind.rpc() || s.kind == spanPush {
				order = append(order, s)
			}
		}
		lp.done[i] = len(r.spans)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].seq < order[j].seq })
	for _, s := range order {
		if err := lp.replay(s); err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
	}
	return nil
}

func (lp *layerPass) replay(s *span) error {
	tw := lp.tw
	switch s.kind {
	case spanPush:
		return tw.Proxy.PushAppMeta(tw.AppMeta)
	case spanNegotiate:
		before := tw.Proxy.Stats().CacheHits
		t0 := time.Now()
		_, err := tw.Proxy.Negotiate(s.appID, s.env, s.sessReq)
		s.replay = time.Since(t0)
		s.hit = tw.Proxy.Stats().CacheHits > before
		return err
	case spanPADFetch:
		path := s.pad.URL
		if path == "" {
			path = "/pads/" + s.pad.ID
		}
		t0 := time.Now()
		_, err := tw.CDN.Origin().Get(path)
		s.replay = time.Since(t0)
		if err != nil {
			return err
		}
		return replayLoad(s, lp.d.setup.Trust, lp.sandbox)
	case spanAppFetch:
		for lp.installed < s.repVersion && lp.installed < len(lp.d.versions) {
			if err := tw.App.InstallCorpus(lp.d.versions[lp.installed]); err != nil {
				return err
			}
			lp.installed++
		}
		t0 := time.Now()
		res, err := tw.App.Encode(s.req.ProtocolIDs, s.req.Resource, s.req.HaveVersion)
		s.replay = time.Since(t0)
		if err != nil {
			return err
		}
		if res.Version != s.repVersion {
			lp.mismatches++
		}
	}
	return nil
}

// replayLoad times the stages of Loader.Load on a downloaded module:
// unpack, signature, static verification, and instantiation (payload
// decode, program decode, host table and VM).
func replayLoad(s *span, trust *mobilecode.TrustList, sb mobilecode.Sandbox) error {
	t0 := time.Now()
	m, err := mobilecode.Unpack(s.packed)
	t1 := time.Now()
	if err != nil {
		return err
	}
	if err := trust.Verify(m.Entity, m.ID, m.Version, m.Digest, m.Sig); err != nil {
		return err
	}
	t2 := time.Now()
	if _, err := verify.Module(m, sb); err != nil {
		return err
	}
	t3 := time.Now()
	p, err := m.DecodePayload()
	if err != nil {
		return err
	}
	if _, err := mobilecode.UnmarshalProgram(p.Encode); err != nil {
		return err
	}
	if _, err := mobilecode.UnmarshalProgram(p.Decode); err != nil {
		return err
	}
	hosts, _, err := mobilecode.HostTableWithCache(p.Params)
	if err != nil {
		return err
	}
	if _, err := mobilecode.NewVM(hosts, sb); err != nil {
		return err
	}
	t4 := time.Now()
	s.unpack, s.signature, s.verify, s.inst = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return nil
}

// reconcileTolerance is the share of the traced op time by which the sum
// of the per-layer self times may miss it.
const reconcileTolerance = 0.05

// replayTolerance is the share of its live span by which an RPC's replayed
// server time may exceed that span. The same encode of the same input
// varies by a quarter between calls on a shared host, so single spans are
// only counted (trace.replay_overrun_pct); an RPC layer whose replayed
// time exceeds its live spans' total by more than this fails the run.
const replayTolerance = 0.15

// layerTimes are the traced window's per-layer times, in totals.
type layerTimes struct {
	ops              int64
	op, unattributed time.Duration
	// rpcs counts the RPC spans, overruns those whose replayed server
	// time exceeds the live span by more than replayTolerance.
	rpcs, overruns                  int64
	negSpan, negReplay              time.Duration
	negHit, negMiss                 time.Duration
	negHits, negMisses              int64
	padSpan, padReplay              time.Duration
	appSpan, appReplay              time.Duration
	ensureSpan, ensureSelf          time.Duration
	requestSpan                     time.Duration
	unpack, signature, verify, inst time.Duration
	clientNew, push, install        time.Duration
	pushes                          int64
	decode, encode                  map[string]time.Duration
	decodes, encodes                map[string]int64
}

// attribute folds the recorded spans of every op of the traced window into
// layer totals. A harness span's self time is its duration minus the RPC
// spans of the same op that it contains.
func attribute(recs []*recorder, protoOf func(padID string) string) layerTimes {
	lt := layerTimes{
		decode: map[string]time.Duration{}, encode: map[string]time.Duration{},
		decodes: map[string]int64{}, encodes: map[string]int64{},
	}
	for _, r := range recs {
		var cur []*span
		for i := range r.spans {
			s := &r.spans[i]
			if s.op < 0 {
				continue
			}
			if s.kind != spanOp {
				cur = append(cur, s)
				continue
			}
			lt.ops++
			lt.op += s.dur()
			var attributed time.Duration
			for _, h := range cur {
				if h.kind.rpc() {
					attributed += h.dur()
					lt.addRPC(h, protoOf)
					continue
				}
				self := h.dur()
				for _, c := range cur {
					if c.kind.rpc() && c.start >= h.start && c.end <= h.end {
						self -= c.dur()
					}
				}
				attributed += self
				switch h.kind {
				case spanClientNew:
					lt.clientNew += self
				case spanEnsure:
					lt.ensureSpan += h.dur()
					lt.ensureSelf += self
				case spanRequest:
					lt.requestSpan += h.dur()
					lt.decode[h.proto] += self
					lt.decodes[h.proto]++
				case spanPush:
					lt.push += self
					lt.pushes++
				case spanInstall:
					lt.install += self
				}
			}
			lt.unattributed += s.dur() - attributed
			cur = cur[:0]
		}
	}
	return lt
}

func (lt *layerTimes) addRPC(s *span, protoOf func(string) string) {
	lt.rpcs++
	if float64(s.replay-s.dur()) > replayTolerance*float64(s.dur()) {
		lt.overruns++
	}
	switch s.kind {
	case spanNegotiate:
		lt.negSpan += s.dur()
		lt.negReplay += s.replay
		if s.hit {
			lt.negHit += s.replay
			lt.negHits++
		} else {
			lt.negMiss += s.replay
			lt.negMisses++
		}
	case spanPADFetch:
		lt.padSpan += s.dur()
		lt.padReplay += s.replay
		lt.unpack += s.unpack
		lt.signature += s.signature
		lt.verify += s.verify
		lt.inst += s.inst
	case spanAppFetch:
		lt.appSpan += s.dur()
		lt.appReplay += s.replay
		p := protoOf(s.proto)
		lt.encode[p] += s.replay
		lt.encodes[p]++
	}
}

// replayShares is, per RPC layer, its replayed server time over its live
// span time; layers the window never called are left out.
func (lt layerTimes) replayShares() map[string]float64 {
	out := map[string]float64{}
	for name, t := range map[string][2]time.Duration{
		"negotiate": {lt.negSpan, lt.negReplay},
		"pad_fetch": {lt.padSpan, lt.padReplay},
		"app_fetch": {lt.appSpan, lt.appReplay},
	} {
		if t[0] > 0 {
			out[name] = float64(t[1]) / float64(t[0])
		}
	}
	return out
}

// reconcile checks that the layer self times sum to the traced op time,
// so every part of an op sits in some recorded span, and that no RPC layer
// claims more server time than its live spans took, within
// replayTolerance.
func (lt layerTimes) reconcile() []string {
	if lt.ops == 0 {
		return []string{"trace: no traced ops"}
	}
	var problems []string
	if gap := float64(lt.unattributed) / float64(lt.op); gap > reconcileTolerance || gap < -reconcileTolerance {
		problems = append(problems, fmt.Sprintf("trace: layer self times miss the traced op time by %.1f%% (tolerance %.0f%%)",
			100*gap, 100*reconcileTolerance))
	}
	shares := lt.replayShares()
	for _, name := range []string{"negotiate", "pad_fetch", "app_fetch"} {
		if sh, ok := shares[name]; ok && sh > 1+replayTolerance {
			problems = append(problems, fmt.Sprintf("trace: replayed %s server time is %.0f%% of its live spans' time (tolerance %.0f%%)",
				name, 100*sh, 100*(1+replayTolerance)))
		}
	}
	return problems
}

// protocolOf maps a PAD id (possibly context-qualified "id@ctx") to its
// protocol name through the application's topology.
func protocolOf(app core.AppMeta) func(string) string {
	names := map[string]string{}
	for _, p := range app.PADs {
		names[p.ID] = p.Protocol
	}
	return func(id string) string {
		if i := strings.IndexByte(id, '@'); i >= 0 {
			id = id[:i]
		}
		if n, ok := names[id]; ok {
			return n
		}
		return id
	}
}
