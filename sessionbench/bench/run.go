// Package bench is the end-to-end Fractal session benchmark. It stands up
// the adaptation proxy, a CDN PAD server and the application server on
// loopback listeners, wired as experiment.NewSetup wires them, and drives
// them through the real client code (client.New with TCPNegotiator,
// TCPPADFetcher and a TCPAppSession) from closed-loop workers, one per CPU,
// none holding more than one connection at a time.
//
// An untraced run reports the end-to-end metrics of one timed window after
// set-up; set-up (deployment, client preparation and a warm-up of the
// workload's own ops) is repeated and its median reported. A traced run
// reports the per-layer metrics: it records spans around the client calls
// and the three client transports, replays each recorded RPC's inputs
// through the server-side public functions on a twin deployment to split
// server time from transport time, then measures an untraced window of
// the same length for the counters and the tracing overhead. Every run
// byte-compares each decoded page with the corpus version the client
// holds, checks the proxy's accounting identity and the client plane's
// error counters, and checks which roles the workload may touch.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fractal/internal/appserver"
	"fractal/internal/client"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/experiment"
	"fractal/internal/proxy"
)

// Options configures one run.
type Options struct {
	Workload string
	Seed     int64
	// Measure is the measured time. A traced run splits it between a traced
	// and an untraced window.
	Measure time.Duration
	Trace   bool
	// Pages is the corpus size; the benchmark uses the paper's 75 pages of
	// experiment.DefaultSetupConfig.
	Pages int
	// Setups is how many times an untraced run builds its deployment; it
	// reports the median and measures the last one.
	Setups int
	// CheckVersionOffset shifts the corpus version every decoded reply is
	// compared with. It exists for the self-test: any nonzero value must
	// make the output check fail.
	CheckVersionOffset int
}

// DefaultOptions are the documented benchmark settings.
func DefaultOptions(workload string, seed int64, measure time.Duration, trace bool) Options {
	return Options{
		Workload: workload, Seed: seed, Measure: measure, Trace: trace,
		Pages: experiment.DefaultSetupConfig().Pages, Setups: 3,
	}
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is a run's result, its provenance and the checks that failed.
type Report struct {
	Result     Result
	Provenance map[string]interface{}
	Problems   []string
}

// counts are the public counters a window is checked and measured with.
type counts struct {
	proxy        proxy.Stats
	cache        core.CacheStats
	app          appserver.Stats
	appChunks    codec.ChunkCacheStats
	client       client.Stats
	clientChunks codec.ChunkCacheStats
	redials      int64
	ops, failed  int64
	pushes       int64
	installs     int64
}

// addClient adds a client's counters to running totals.
func addClient(dst *client.Stats, chunks *codec.ChunkCacheStats, c *client.Client) {
	addStats(dst, c.Stats())
	cs := c.DecodeCacheStats()
	chunks.Hits += cs.Hits
	chunks.Misses += cs.Misses
}

func addStats(dst *client.Stats, st client.Stats) {
	dst.Negotiations += st.Negotiations
	dst.ProtocolCacheHits += st.ProtocolCacheHits
	dst.PADDownloads += st.PADDownloads
	dst.PADDownloadBytes += st.PADDownloadBytes
	dst.Requests += st.Requests
	dst.PayloadBytes += st.PayloadBytes
	dst.ContentBytes += st.ContentBytes
	dst.SecurityRejections += st.SecurityRejections
	dst.Degradations += st.Degradations
}

func collectCounts(d *deployment, ws []*worker) counts {
	c := counts{
		proxy: d.setup.Proxy.Stats(), cache: d.setup.Proxy.CacheStats(),
		app: d.setup.App.Stats(), appChunks: d.setup.App.ChunkCacheStats(),
	}
	for _, w := range ws {
		addStats(&c.client, w.clients)
		c.clientChunks.Hits += w.chunks.Hits
		c.clientChunks.Misses += w.chunks.Misses
		for _, cl := range w.appCli {
			addClient(&c.client, &c.clientChunks, cl)
		}
		c.redials += w.redials
		if w.session != nil {
			c.redials += w.session.redials()
		}
		c.ops += w.ops
		c.failed += w.failed
		c.pushes += w.pushes
		c.installs += w.installs
	}
	return c
}

// sub is the change from a to b in the fields the checks and metrics read.
func (b counts) sub(a counts) counts {
	return counts{
		proxy: proxy.Stats{
			Negotiations:      b.proxy.Negotiations - a.proxy.Negotiations,
			CacheHits:         b.proxy.CacheHits - a.proxy.CacheHits,
			Searches:          b.proxy.Searches - a.proxy.Searches,
			TopologyPushes:    b.proxy.TopologyPushes - a.proxy.TopologyPushes,
			CollapsedSearches: b.proxy.CollapsedSearches - a.proxy.CollapsedSearches,
			TotalSearchNanos:  b.proxy.TotalSearchNanos - a.proxy.TotalSearchNanos,
		},
		cache:     core.CacheStats{Evictions: b.cache.Evictions - a.cache.Evictions},
		app:       appserver.Stats{Requests: b.app.Requests - a.app.Requests},
		appChunks: codec.ChunkCacheStats{Hits: b.appChunks.Hits - a.appChunks.Hits, Misses: b.appChunks.Misses - a.appChunks.Misses},
		client: client.Stats{
			Negotiations:       b.client.Negotiations - a.client.Negotiations,
			ProtocolCacheHits:  b.client.ProtocolCacheHits - a.client.ProtocolCacheHits,
			PADDownloads:       b.client.PADDownloads - a.client.PADDownloads,
			PADDownloadBytes:   b.client.PADDownloadBytes - a.client.PADDownloadBytes,
			Requests:           b.client.Requests - a.client.Requests,
			PayloadBytes:       b.client.PayloadBytes - a.client.PayloadBytes,
			ContentBytes:       b.client.ContentBytes - a.client.ContentBytes,
			SecurityRejections: b.client.SecurityRejections - a.client.SecurityRejections,
			Degradations:       b.client.Degradations - a.client.Degradations,
		},
		clientChunks: codec.ChunkCacheStats{Hits: b.clientChunks.Hits - a.clientChunks.Hits, Misses: b.clientChunks.Misses - a.clientChunks.Misses},
		redials:      b.redials - a.redials,
		ops:          b.ops - a.ops,
		failed:       b.failed - a.failed,
		pushes:       b.pushes - a.pushes,
		installs:     b.installs - a.installs,
	}
}

// window is one measured stretch of closed-loop load.
type window struct {
	counts  counts
	proc    delta
	samples []sample
}

// run is a deployment with its workload and workers.
type run struct {
	d   *deployment
	wl  workload
	ws  []*worker
	seq atomic.Int64
}

// traceSlice is the live time between two catch-ups of the layer pass.
const traceSlice = time.Second

// warmLimit bounds the warm-up's duration on a slow host.
const warmLimit = 20 * time.Second

func setUp(o Options) (*run, error) {
	wl, err := newWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	cfg := experiment.DefaultSetupConfig()
	cfg.Pages = o.Pages
	extra := 0
	if o.Workload == AppSession {
		extra = extraVersions
	}
	d, err := newDeployment(cfg, extra, o.Seed)
	if err != nil {
		return nil, err
	}
	d.checkOffset = o.CheckVersionOffset
	r := &run{d: d, wl: wl}
	epoch := time.Now()
	for i := 0; i < runtime.NumCPU(); i++ {
		w := &worker{id: i, rng: rand.New(rand.NewSource(o.Seed*7919 + int64(i)))}
		w.neg = &client.TCPNegotiator{Addr: d.proxyAddr, DialTimeout: ioTimeout, CallTimeout: ioTimeout}
		w.pads = &client.TCPPADFetcher{Addr: d.padAddr, DialTimeout: ioTimeout, CallTimeout: ioTimeout}
		if o.Trace {
			w.rec = &recorder{epoch: epoch, seq: &r.seq, op: -1}
			w.neg = tracedNegotiator{inner: w.neg, rec: w.rec}
			w.pads = tracedPADFetcher{inner: w.pads, rec: w.rec}
		}
		r.ws = append(r.ws, w)
	}
	if err := r.prepare(o); err != nil {
		_ = r.close() // the set-up error is the one to report
		return nil, err
	}
	return r, nil
}

// prepare readies the workers' clients and caches, then warms up with the
// workload's own op mix until the heap, the connection paths and the
// caches reach their steady state.
func (r *run) prepare(o Options) error {
	if err := r.wl.prepare(r.d, r.ws, o.Seed); err != nil {
		return fmt.Errorf("preparing %s: %w", o.Workload, err)
	}
	if _, err := r.measure(warmLimit, r.wl.warmOps(), true); err != nil {
		return err
	}
	for _, w := range r.ws {
		if w.err != nil {
			return fmt.Errorf("warming %s: %w", o.Workload, w.err)
		}
	}
	return nil
}

func (r *run) close() error {
	err := r.wl.closeClients(r.ws)
	if cerr := r.d.close(); err == nil {
		err = cerr
	}
	return err
}

// measure runs every worker in a closed loop for dur, or until each
// worker has run maxOps ops when maxOps > 0. Set-up ops (warm) are not
// recorded as traced ops.
func (r *run) measure(dur time.Duration, maxOps int64, warm bool) (window, error) {
	before := collectCounts(r.d, r.ws)
	p0, err := takeSnapshot()
	if err != nil {
		return window{}, err
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := p0.at
	deadline := start.Add(dur)
	for _, w := range r.ws {
		w.samples = w.samples[:0]
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for n := int64(0); !stop.Load() && (maxOps <= 0 || n < maxOps); n++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				traced := w.rec != nil && !warm
				if traced {
					w.rec.op = int64(w.id)<<40 | w.tracedOps
					w.tracedOps++
				}
				err := r.wl.op(r.d, w)
				t1 := time.Now()
				w.samples = append(w.samples, sample{end: t1.Sub(start), lat: t1.Sub(t0)})
				w.ops++
				if traced {
					w.rec.add(span{kind: spanOp, start: t0.Sub(w.rec.epoch), end: t1.Sub(w.rec.epoch)})
					w.rec.op = -1
				}
				if err == nil {
					err = w.pending.verify(r.d)
				}
				if err != nil {
					w.failed++
					if w.err == nil {
						w.err = err
					}
					stop.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	p1, err := takeSnapshot()
	if err != nil {
		return window{}, err
	}
	win := window{counts: collectCounts(r.d, r.ws).sub(before), proc: diff(p0, p1)}
	for _, w := range r.ws {
		win.samples = append(win.samples, w.samples...)
	}
	return win, nil
}

// Run performs one benchmark run.
func Run(o Options) (*Report, error) {
	if o.Setups < 1 || o.Pages < 1 || o.Measure <= 0 {
		return nil, fmt.Errorf("invalid options %+v", o)
	}
	if _, err := newWorkload(o.Workload); err != nil {
		return nil, err
	}
	rep := &Report{Provenance: provenance(o)}
	rep.Provenance["tcp_tw_before"] = timeWaitSockets()

	setups := o.Setups
	if o.Trace {
		setups = 1
	}
	var times []float64
	var r *run
	for i := 0; i < setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
			r = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = setUp(o); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer func() {
		if r != nil {
			_ = r.close() // error paths only; the success path checks its close
		}
	}()

	var metrics map[string]Metric
	var attempted, failed int64
	if o.Trace {
		recs := make([]*recorder, len(r.ws))
		for i, w := range r.ws {
			recs[i] = w.rec
		}
		lp, err := newLayerPass(r.d, r.wl, len(recs))
		if err != nil {
			return nil, err
		}
		if err := lp.catchUp(recs); err != nil {
			return nil, err
		}
		var traced window
		for traced.proc.wall < o.Measure/2 && traced.counts.failed == 0 {
			w, err := r.measure(min(traceSlice, o.Measure/2-traced.proc.wall), 0, false)
			if err != nil {
				return nil, err
			}
			rep.Problems = append(rep.Problems, r.checks(w.counts)...)
			traced.counts.ops += w.counts.ops
			traced.counts.failed += w.counts.failed
			traced.proc.wall += w.proc.wall
			if err := lp.catchUp(recs); err != nil {
				return nil, err
			}
		}
		for _, w := range r.ws {
			w.rec.off = true
			w.rec = nil
		}
		untraced, err := r.measure(o.Measure/2, 0, false)
		if err != nil {
			return nil, err
		}
		attempted = traced.counts.ops + untraced.counts.ops
		failed = traced.counts.failed + untraced.counts.failed
		rep.Provenance["host_steal_pct"] = untraced.proc.hostStealPct
		rep.Problems = append(rep.Problems, r.checks(untraced.counts)...)
		if failed == 0 {
			lt := attribute(recs, protocolOf(r.d.setup.AppMeta))
			rep.Problems = append(rep.Problems, lt.reconcile()...)
			rep.Provenance["replay_over_span"] = lt.replayShares()
			metrics = layerMetrics(lt, traced, untraced, lp.mismatches)
		}
	} else {
		win, err := r.measure(o.Measure, 0, false)
		if err != nil {
			return nil, err
		}
		attempted, failed = win.counts.ops, win.counts.failed
		rep.Provenance["host_steal_pct"] = win.proc.hostStealPct
		rep.Problems = append(rep.Problems, r.checks(win.counts)...)
		metrics = endToEndMetrics(win, median(times), rep.Provenance)
	}
	for _, w := range r.ws {
		if w.err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("op failed: %v", w.err))
		}
	}
	rep.Problems = append(rep.Problems, r.finalChecks()...)
	err := r.close()
	r = nil
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("shutdown: %v", err))
	}
	rep.Provenance["tcp_tw_after"] = timeWaitSockets()
	rep.Provenance["setup_s_each"] = times
	rep.Result = Result{
		Correct:   len(rep.Problems) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	return rep, nil
}

// checks are the window's isolation checks.
func (r *run) checks(c counts) []string {
	var problems []string
	if err := r.wl.isolation(c); err != nil {
		problems = append(problems, err.Error())
	}
	return problems
}

// finalChecks are the whole-run accounting identities and error counters.
func (r *run) finalChecks() []string {
	var problems []string
	c := collectCounts(r.d, r.ws)
	p := c.proxy
	if p.Negotiations != p.CacheHits+p.Searches+p.CollapsedSearches {
		problems = append(problems, fmt.Sprintf("proxy identity: %d negotiations != %d hits + %d searches + %d collapsed",
			p.Negotiations, p.CacheHits, p.Searches, p.CollapsedSearches))
	}
	if c.client.SecurityRejections != 0 || c.client.Degradations != 0 || c.redials != 0 {
		problems = append(problems, fmt.Sprintf("client plane: %d security rejections, %d degradations, %d redials, want none",
			c.client.SecurityRejections, c.client.Degradations, c.redials))
	}
	if n := r.d.serverErrors.Load(); n != 0 {
		problems = append(problems, fmt.Sprintf("servers logged %d session errors, first: %s", n, r.d.firstServerError()))
	}
	return problems
}

func endToEndMetrics(w window, setupS float64, prov map[string]interface{}) map[string]Metric {
	ops := float64(w.counts.ops)
	lat := make([]float64, len(w.samples))
	for i, s := range w.samples {
		lat[i] = float64(s.lat) / 1e3
	}
	sort.Float64s(lat)
	prov["p99_chunks_us"] = chunkedP99(w.samples)
	prov["samples"] = len(w.samples)
	return map[string]Metric{
		"setup_s":           {setupS, "s"},
		"ops_per_s":         {opsPerSecond(w), "1/s"},
		"latency_p50_us":    {quantile(lat, 0.5), "us"},
		"latency_p99_us":    {quantile(lat, 0.99), "us"},
		"cpu_us_per_op":     {ratio(float64(w.proc.cpu)/1e3, ops), "us"},
		"allocs_per_op":     {ratio(float64(w.proc.allocs), ops), "count"},
		"syscalls_per_op":   {ratio(float64(w.proc.io.syscr+w.proc.io.syscw), ops), "count"},
		"wire_bytes_per_op": {ratio(float64(w.proc.io.wchar), ops), "B"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
	}
}

// opsPerSecond is the median of the per-second completion counts over the
// window's whole seconds (the plain rate when the window is shorter).
func opsPerSecond(w window) float64 {
	secs := int(w.proc.wall / time.Second)
	if secs < 2 {
		return ratio(float64(len(w.samples)), w.proc.wall.Seconds())
	}
	per := make([]float64, secs)
	for _, s := range w.samples {
		if i := int(s.end / time.Second); i < secs {
			per[i]++
		}
	}
	return median(per)
}

// p99Chunk is the sample count one p99 estimate needs: ten samples beyond
// the percentile.
const p99Chunk = 1000

// chunkedP99 splits the samples, in completion order, into runs of at
// least p99Chunk and returns the p99 of each: the provenance shows where in
// the window the tail came from, such as a burst of host CPU steal
// (host_steal_pct) or the stretch after a corpus update.
func chunkedP99(samples []sample) []float64 {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].end < s[j].end })
	n := max(len(s)/p99Chunk, 1)
	var p99s []float64
	for i := 0; i < n; i++ {
		lo, hi := i*len(s)/n, (i+1)*len(s)/n
		lat := make([]float64, 0, hi-lo)
		for _, x := range s[lo:hi] {
			lat = append(lat, float64(x.lat)/1e3)
		}
		sort.Float64s(lat)
		p99s = append(p99s, quantile(lat, 0.99))
	}
	return p99s
}

func layerMetrics(lt layerTimes, traced, untraced window, mismatches int) map[string]Metric {
	n := float64(lt.ops)
	perOp := func(d time.Duration) Metric { return Metric{ratio(float64(d)/1e3, n), "us"} }
	perCall := func(d time.Duration, calls int64) Metric { return Metric{ratio(float64(d)/1e3, float64(calls)), "us"} }
	c := untraced.counts
	ops := float64(c.ops)
	m := map[string]Metric{
		"inp.write_syscalls_per_op":           {ratio(float64(untraced.proc.io.syscw), ops), "count"},
		"inp.read_syscalls_per_op":            {ratio(float64(untraced.proc.io.syscr), ops), "count"},
		"inp.negotiate_overhead_us":           perOp(lt.negSpan - lt.negReplay),
		"inp.pad_fetch_overhead_us":           perOp(lt.padSpan - lt.padReplay),
		"inp.app_fetch_overhead_us":           perOp(lt.appSpan - lt.appReplay),
		"client.new_us":                       perOp(lt.clientNew),
		"client.ensure_us":                    perOp(lt.ensureSpan),
		"client.request_us":                   perOp(lt.requestSpan),
		"client.protocol_cache_hit_ratio":     {ratio(float64(c.client.ProtocolCacheHits), float64(c.client.ProtocolCacheHits+c.client.Negotiations)), "ratio"},
		"proxy.negotiate_rpc_us":              perOp(lt.negReplay),
		"proxy.negotiate_hit_us":              perCall(lt.negHit, lt.negHits),
		"proxy.negotiate_miss_us":             perCall(lt.negMiss, lt.negMisses),
		"proxy.push_rpc_us":                   perCall(lt.push, lt.pushes),
		"proxy.hit_ratio":                     {ratio(float64(c.proxy.CacheHits), float64(c.proxy.Negotiations)), "ratio"},
		"proxy.collapse_ratio":                {ratio(float64(c.proxy.CollapsedSearches), float64(c.proxy.Negotiations)), "ratio"},
		"proxy.pushes":                        {float64(c.proxy.TopologyPushes), "count"},
		"core.search_us":                      {ratio(float64(c.proxy.TotalSearchNanos)/1e3, float64(c.proxy.Searches)), "us"},
		"core.cache_evictions_per_kop":        {ratio(1000*float64(c.cache.Evictions), ops), "count"},
		"cdn.pad_fetch_rpc_us":                perOp(lt.padReplay),
		"cdn.pad_bytes_per_download":          {ratio(float64(c.client.PADDownloadBytes), float64(c.client.PADDownloads)), "B"},
		"mobilecode.load_us":                  perOp(lt.ensureSelf),
		"mobilecode.unpack_us":                perOp(lt.unpack),
		"mobilecode.signature_us":             perOp(lt.signature),
		"verify.module_us":                    perOp(lt.verify),
		"mobilecode.instantiate_us":           perOp(lt.inst),
		"appserver.app_fetch_rpc_us":          perOp(lt.appReplay),
		"appserver.install_us":                perOp(lt.install),
		"appserver.payload_bytes_per_request": {ratio(float64(c.client.PayloadBytes), float64(c.client.Requests)), "B"},
		"appserver.content_per_payload_ratio": {ratio(float64(c.client.ContentBytes), float64(c.client.PayloadBytes)), "ratio"},
		"codec.server_chunk_hit_ratio":        {ratio(float64(c.appChunks.Hits), float64(c.appChunks.Hits+c.appChunks.Misses)), "ratio"},
		"codec.client_chunk_hit_ratio":        {ratio(float64(c.clientChunks.Hits), float64(c.clientChunks.Hits+c.clientChunks.Misses)), "ratio"},
		"go.gc_cpu_share":                     {ratio(untraced.proc.gcCPU, untraced.proc.totCPU), "ratio"},
		"go.sched_wait_p99_us":                {untraced.proc.schedWaitP99us, "us"},
		"trace.op_us":                         perOp(lt.op),
		"trace.unattributed_pct":              {100 * ratio(float64(lt.unattributed), float64(lt.op)), "%"},
		"trace.overhead_pct":                  {100 * (1 - ratio(rate(traced), rate(untraced))), "%"},
		"trace.replay_mismatches":             {float64(mismatches), "count"},
		"trace.replay_overrun_pct":            {100 * ratio(float64(lt.overruns), float64(lt.rpcs)), "%"},
	}
	for _, p := range []string{"direct", "gzip", "bitmap"} {
		m["mobilecode.decode_us."+p] = perCall(lt.decode[p], lt.decodes[p])
		m["appserver.encode_us."+p] = perCall(lt.encode[p], lt.encodes[p])
	}
	return m
}

func rate(w window) float64 { return ratio(float64(w.counts.ops), w.proc.wall.Seconds()) }
