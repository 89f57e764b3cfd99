package bench

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"fractal/internal/appserver"
	"fractal/internal/client"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/experiment"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
	"fractal/internal/proxy"
	corpus "fractal/internal/workload"
)

// Workload names.
const (
	FirstContact = "first-contact"
	AppSession   = "app-session"
)

// Workloads lists every workload the benchmark runs.
var Workloads = []string{FirstContact, AppSession}

// Shape of the generated inputs. Every value is fixed; the seed only
// chooses which inputs are drawn. Values taken from the repository's own
// models say so; the rest are the benchmark's assumptions.
const (
	// envJitter is the largest relative change a client profile applies to
	// its station's CPU clock (upward) and link bandwidth (downward). It
	// keeps every profile on its station's protocol, stationProtocols.
	// Assumption.
	envJitter = 0.2
	// traceLen is the length of each worker's pre-generated page trace,
	// replayed cyclically; it is longer than any window's op count.
	traceLen = 1 << 15
	// pushEvery is the op count between AppMeta pushes of the unchanged
	// topology on first-contact, below the 1 in 1000 the pushes are meant
	// to stay under. Set-up leaves the proxy's cache full, so a window
	// first evicts, then, after a push, refills it. Assumption.
	pushEvery = 4000
	// installEvery is the op count between corpus updates on app-session,
	// and extraVersions bounds how many updates a run can install: a run
	// installs about three. Assumption.
	installEvery  = 4000
	extraVersions = 4
	// forgetShare is the share of app-session requests that drop the held
	// page first and so fetch it in full. Assumption.
	forgetShare = 0.15
	// ioTimeout bounds every dial and every read or write of the client
	// transports, so a stalled role fails the run instead of hanging it.
	ioTimeout = 10 * time.Second
)

// universeProfiles is the size of the client population first-contact
// draws from: the fleet load model's default profile count, four times the
// proxy's default adaptation-cache capacity.
var universeProfiles = experiment.DefaultFleetLoadConfig().Profiles

// popularity is the skew of both page popularity and, by assumption,
// client-profile popularity: the repository's request-trace model.
var popularity = corpus.DefaultTraceConfig(0).ZipfS

// stationProtocols is the protocol the proxy picks for each station of
// netsim.Stations: Desktop→direct, Laptop→gzip, PDA→bitmap.
var stationProtocols = []string{"direct", "gzip", "bitmap"}

// profile is one client environment: a station with seeded jitter.
type profile struct {
	station int
	env     core.Env
}

func makeProfiles(rng *rand.Rand, perStation int) []profile {
	var out []profile
	for i := 0; i < perStation; i++ {
		for si, st := range netsim.Stations() {
			env := experiment.EnvFor(st)
			env.Dev.CPUMHz = math.Round(env.Dev.CPUMHz * (1 + envJitter*rng.Float64()))
			env.Ntwk.BandwidthKbps = math.Max(1, math.Round(env.Ntwk.BandwidthKbps*(1-envJitter*rng.Float64())))
			out = append(out, profile{station: si, env: env})
		}
	}
	return out
}

// universe is a client population: universeProfiles jittered profiles
// spread evenly over the stations. A draw picks the station uniformly, as
// the capacity experiment's equal population shares do, and a variant of
// it with Zipf-skewed popularity, so the proxy sees mostly hits plus
// misses and evictions.
type universe struct {
	seed     int64
	profiles []profile // variant*stations + station
	want     [][]string
}

func newUniverse(seed int64) *universe {
	perStation := universeProfiles / len(netsim.Stations())
	return &universe{seed: seed, profiles: makeProfiles(rand.New(rand.NewSource(seed)), perStation)}
}

// sampler returns a seeded draw over the universe's profile indices.
func (u *universe) sampler(rng *rand.Rand) func() int {
	stations := len(netsim.Stations())
	z := rand.NewZipf(rng, popularity, 1, uint64(len(u.profiles)/stations-1))
	return func() int { return int(z.Uint64())*stations + rng.Intn(stations) }
}

// prime negotiates every profile in-process to learn the PAD ids it must
// receive over the wire, re-pushes the unchanged topology, which empties
// the application's cache entries, then negotiates a seeded stream of
// draws so the adaptation cache starts in its steady state. The layer pass
// primes its twin proxy the same way.
func (u *universe) prime(px *proxy.Proxy, app core.AppMeta, cfg experiment.SetupConfig) error {
	want := make([][]string, len(u.profiles))
	for i, p := range u.profiles {
		pads, err := px.Negotiate(app.AppID, p.env, cfg.SessionRequests)
		if err != nil {
			return fmt.Errorf("priming the proxy: %w", err)
		}
		if len(pads) != 1 || pads[0].Protocol != stationProtocols[p.station] {
			return fmt.Errorf("priming the proxy: profile %d of station %d negotiated %v, want one %s PAD",
				i, p.station, pads, stationProtocols[p.station])
		}
		want[i] = padIDs(pads)
	}
	if u.want == nil {
		u.want = want
	}
	if err := px.PushAppMeta(app); err != nil {
		return fmt.Errorf("resetting the proxy cache: %w", err)
	}
	draw := u.sampler(rand.New(rand.NewSource(u.seed + 1)))
	for i := 0; i < 10*cfg.CacheCapacity; i++ {
		if _, err := px.Negotiate(app.AppID, u.profiles[draw()].env, cfg.SessionRequests); err != nil {
			return fmt.Errorf("warming the proxy cache: %w", err)
		}
	}
	return nil
}

func padIDs(pads []core.PADMeta) []string {
	ids := make([]string, len(pads))
	for i, p := range pads {
		ids[i] = p.ID
	}
	return ids
}

// worker is one closed-loop load generator. It holds at most one
// connection open at a time.
type worker struct {
	id   int
	rng  *rand.Rand
	rec  *recorder // nil when the run is untraced
	neg  client.Negotiator
	pads client.PADFetcher

	samples   []sample
	ops       int64
	tracedOps int64 // numbers the worker's traced ops
	failed    int64
	err       error

	// pending is the op's output, checked after its latency is recorded.
	pending pendingCheck
	// Counters summed over the worker's clients and its harness ops.
	clients  client.Stats
	chunks   codec.ChunkCacheStats
	redials  int64
	pushes   int64
	installs int64

	// Per-workload state.
	trace    []corpus.Request // the worker's page trace, replayed cyclically
	next     int              // the trace entry of the next request
	draw     func() int       // profile draw of first-contact
	session  *lazySession
	appCli   []*client.Client
	appProto []string
}

type sample struct {
	end time.Duration // completion, relative to the window start
	lat time.Duration
}

type pendingCheck struct {
	page     string
	held     int
	data     []byte
	gotPADs  []string
	wantPADs []string // nil when the op negotiated nothing
}

// span times f as a harness span of the current op when tracing.
func (w *worker) span(kind spanKind, f func() error) error {
	if w.rec == nil {
		return f()
	}
	s := span{kind: kind, start: w.rec.now()}
	err := f()
	s.end = w.rec.now()
	w.rec.add(s)
	return err
}

// workload is one traffic mix over a deployment.
type workload interface {
	// prepare builds the workers' client state and warms the caches the
	// timed window relies on; it is part of set-up.
	prepare(d *deployment, ws []*worker, seed int64) error
	// op runs one operation; its output is left in w.pending.
	op(d *deployment, w *worker) error
	// warmOps is the per-worker op count of the warm-up that ends set-up.
	warmOps() int64
	// closeClients closes every connection the workers hold.
	closeClients(ws []*worker) error
	// isolation checks the window's public counters against what the
	// workload may and may not touch.
	isolation(c counts) error
	// prime is prepare's in-process work on the proxy, which the layer
	// pass repeats on its twin.
	prime(px *proxy.Proxy, app core.AppMeta, cfg experiment.SetupConfig) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case FirstContact:
		return &firstContact{}, nil
	case AppSession:
		return &appSession{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
}

func newClient(d *deployment, w *worker, env core.Env, content client.ContentFetcher) (*client.Client, error) {
	return client.New(client.Config{
		Env:             env,
		SessionRequests: d.setup.Config.SessionRequests,
		Trust:           d.setup.Trust,
		Sandbox:         mobilecode.DefaultSandbox(),
	}, w.neg, w.pads, w.content(content))
}

// content wraps a content fetcher in the tracing layer when tracing.
func (w *worker) content(c client.ContentFetcher) client.ContentFetcher {
	if w.rec == nil {
		return c
	}
	return tracedContent{inner: c, rec: w.rec}
}

// schedule marks every period-th op of a workload, counted over all its
// workers, set-up warm-up included.
type schedule struct {
	period int64
	n      atomic.Int64
}

func (s *schedule) due() bool { return s.n.Add(1)%s.period == 0 }

// pageTraces gives each worker its own page trace from the repository's
// request-trace model (Zipf page popularity, requests round-robin over
// clients) over the first corpus version, whose page ids every version
// shares.
func pageTraces(d *deployment, ws []*worker, seed int64, clients int) error {
	for _, w := range ws {
		cfg := corpus.DefaultTraceConfig(seed + int64(w.id))
		cfg.Clients, cfg.Requests = clients, traceLen
		tr, err := corpus.GenerateTraceRand(rand.New(rand.NewSource(cfg.Seed)), d.setup.V1, cfg)
		if err != nil {
			return fmt.Errorf("generating the page trace: %w", err)
		}
		w.trace, w.next = tr, 0
	}
	return nil
}

// nextRequest is the worker's next trace entry.
func (w *worker) nextRequest() corpus.Request {
	r := w.trace[w.next]
	w.next = (w.next + 1) % len(w.trace)
	return r
}

// --- first-contact ---------------------------------------------------------

// firstContact: every op is a brand-new client host that negotiates,
// downloads and deploys its PAD, then fetches one page in full. Every
// pushEvery-th op instead pushes the unchanged topology to the proxy over
// TCP, which empties the application's adaptation-cache entries.
type firstContact struct {
	*universe
	push schedule
}

func (f *firstContact) prepare(d *deployment, ws []*worker, seed int64) error {
	f.universe = newUniverse(seed)
	f.push.period = pushEvery
	if err := f.prime(d.setup.Proxy, d.setup.AppMeta, d.setup.Config); err != nil {
		return err
	}
	for _, w := range ws {
		w.draw = f.sampler(w.rng)
	}
	return pageTraces(d, ws, seed, 1)
}

func (f *firstContact) warmOps() int64 { return 200 }

// lazySession dials the application server on the first request, so a
// client's negotiation and PAD download never overlap its app session.
type lazySession struct {
	addr string
	s    *client.TCPAppSession
}

func (l *lazySession) FetchContent(req inp.AppReq) (inp.AppRep, error) {
	if l.s == nil {
		s, err := client.DialAppSession(l.addr, client.SessionConfig{DialTimeout: ioTimeout, CallTimeout: ioTimeout})
		if err != nil {
			return inp.AppRep{}, err
		}
		l.s = s
	}
	return l.s.FetchContent(req)
}

func (l *lazySession) redials() int64 {
	if l.s == nil {
		return 0
	}
	return l.s.Redials()
}

func (l *lazySession) close() (redials int64, err error) {
	if l.s == nil {
		return 0, nil
	}
	redials = l.s.Redials()
	err = l.s.Close()
	l.s = nil
	return redials, err
}

func (f *firstContact) op(d *deployment, w *worker) error {
	if f.push.due() {
		w.pending = pendingCheck{}
		err := w.span(spanPush, func() error {
			return appserver.PushAppMetaTCP(d.proxyAddr, d.setup.AppMeta)
		})
		if err == nil {
			w.pushes++
		}
		return err
	}
	pi := w.draw()
	page := w.nextRequest().Resource
	app := d.setup.App.AppID()
	sess := &lazySession{addr: d.appAddr}
	var c *client.Client
	err := w.span(spanClientNew, func() (err error) {
		c, err = newClient(d, w, f.profiles[pi].env, sess)
		return err
	})
	if err != nil {
		return err
	}
	var pads []core.PADMeta
	if err := w.span(spanEnsure, func() (err error) {
		pads, err = c.EnsureProtocol(app)
		return err
	}); err != nil {
		return err
	}
	var data []byte
	err = w.span(spanRequest, func() (err error) {
		data, err = c.Request(app, page)
		return err
	})
	redials, cerr := sess.close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("closing app session: %w", cerr)
	}
	st := c.Stats()
	addClient(&w.clients, &w.chunks, c)
	w.redials += redials
	if w.rec != nil && len(pads) > 0 {
		w.rec.tagProto(spanRequest, pads[0].Protocol)
	}
	w.pending = pendingCheck{page: page, held: c.HeldVersion(page), data: data, gotPADs: padIDs(pads), wantPADs: f.want[pi]}
	if st.Negotiations != 1 || st.PADDownloads != int64(len(pads)) || len(pads) != 1 {
		return fmt.Errorf("isolation: a first-contact client made %d negotiations and %d PAD downloads for %d PADs, want 1 and 1",
			st.Negotiations, st.PADDownloads, len(pads))
	}
	return nil
}

func (f *firstContact) closeClients([]*worker) error { return nil }

func (f *firstContact) isolation(c counts) error {
	clients := c.ops - c.pushes
	if c.client.Negotiations != clients || c.client.PADDownloads != clients || c.proxy.Negotiations != clients {
		return fmt.Errorf("isolation: %d first-contact clients made %d client negotiations, %d proxy negotiations and %d PAD downloads, want one each per client",
			clients, c.client.Negotiations, c.proxy.Negotiations, c.client.PADDownloads)
	}
	// Request re-checks the protocol EnsureProtocol has just negotiated.
	if c.client.ProtocolCacheHits != clients {
		return fmt.Errorf("isolation: %d first-contact clients made %d protocol-cache hits, want one each", clients, c.client.ProtocolCacheHits)
	}
	if c.client.Requests != clients || c.app.Requests != clients {
		return fmt.Errorf("isolation: %d first-contact clients made %d requests, %d reached the application server, want one each per client",
			clients, c.client.Requests, c.app.Requests)
	}
	if c.proxy.TopologyPushes != c.pushes {
		return fmt.Errorf("isolation: %d first-contact pushes reached the proxy as %d topology pushes", c.pushes, c.proxy.TopologyPushes)
	}
	return nil
}

// --- app-session -----------------------------------------------------------

// appSession: every op is one Request by an already-deployed client over
// its worker's persistent session, or, every installEvery-th op, the
// installation of the next corpus version.
type appSession struct {
	install schedule
}

func (a *appSession) prepare(d *deployment, ws []*worker, seed int64) error {
	a.install.period = installEvery
	app := d.setup.App.AppID()
	for _, w := range ws {
		// One client per station, all sharing the worker's one session,
		// which dials on the first request, after every negotiation.
		w.session = &lazySession{addr: d.appAddr}
		for _, p := range makeProfiles(rand.New(rand.NewSource(seed+int64(w.id))), 1) {
			c, err := newClient(d, w, p.env, w.session)
			if err != nil {
				return err
			}
			pads, err := c.EnsureProtocol(app)
			if err != nil {
				return err
			}
			w.appCli = append(w.appCli, c)
			w.appProto = append(w.appProto, pads[0].Protocol)
		}
		// Warm-up: every client holds every page, so the window's requests
		// are differential or already current unless they forget first.
		for _, c := range w.appCli {
			for _, p := range d.setup.V1.Pages {
				data, err := c.Request(app, p.ID)
				if err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
				if err := d.checkReply(p.ID, c.HeldVersion(p.ID), data); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
		}
	}
	return pageTraces(d, ws, seed, len(netsim.Stations()))
}

func (a *appSession) warmOps() int64 { return 300 }

func (a *appSession) op(d *deployment, w *worker) error {
	if a.install.due() && d.canInstall() {
		var installed bool
		err := w.span(spanInstall, func() (err error) {
			installed, err = d.installNext()
			return err
		})
		if err != nil {
			return err
		}
		if installed {
			w.installs++
			w.pending = pendingCheck{}
			return nil
		}
	}
	req := w.nextRequest()
	c, page := w.appCli[req.Client], req.Resource
	if w.rng.Float64() < forgetShare {
		c.Forget(page)
	}
	var data []byte
	err := w.span(spanRequest, func() (err error) {
		data, err = c.Request(d.setup.App.AppID(), page)
		return err
	})
	if w.rec != nil {
		w.rec.tagProto(spanRequest, w.appProto[req.Client])
	}
	w.pending = pendingCheck{page: page, held: c.HeldVersion(page), data: data}
	return err
}

func (a *appSession) closeClients(ws []*worker) error {
	var first error
	for _, w := range ws {
		if w.session != nil {
			redials, err := w.session.close()
			w.redials += redials
			if err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func (a *appSession) isolation(c counts) error {
	if c.client.Negotiations != 0 || c.client.PADDownloads != 0 || c.proxy.Negotiations != 0 {
		return fmt.Errorf("isolation: app-session window made %d client negotiations, %d proxy negotiations and %d PAD downloads, want none",
			c.client.Negotiations, c.proxy.Negotiations, c.client.PADDownloads)
	}
	if requests := c.ops - c.installs; c.client.Requests != requests || c.app.Requests != requests {
		return fmt.Errorf("isolation: %d app-session requests were %d client requests and %d application-server requests, want equal",
			requests, c.client.Requests, c.app.Requests)
	}
	return nil
}

func (a *appSession) prime(*proxy.Proxy, core.AppMeta, experiment.SetupConfig) error { return nil }

// verify is the per-op output check.
func (p pendingCheck) verify(d *deployment) error {
	if p.wantPADs != nil && !slices.Equal(p.gotPADs, p.wantPADs) {
		return fmt.Errorf("output check: negotiated PADs %v, want %v", p.gotPADs, p.wantPADs)
	}
	if p.page != "" {
		return d.checkReply(p.page, p.held, p.data)
	}
	return nil
}
