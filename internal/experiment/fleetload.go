package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fractal/internal/core"
	"fractal/internal/fleet"
	"fractal/internal/netsim"
	"fractal/internal/proxy"
)

// The fleet load harness: a discrete-event simulation that drives a real
// fleet.Fleet with up to millions of client sessions under simulated
// time. Time never comes from the wall clock — arrivals, queueing, and
// service all advance on a netsim.EventQueue — so every latency figure
// (p50/p99/p999, makespan, simulated sessions/sec) is a pure function of
// the configuration and seed, reproducible bit-for-bit on any machine.
// The wall clock only matters to fractal-bench, which times the drive
// loop around this function to report real sessions/sec.
//
// Each session is an arrival event; its shard is the rendezvous owner of
// its profile's canonical cache key. A shard has a fixed worker pool:
// free worker → service starts immediately, else the session waits FIFO.
// Service time depends on how the negotiation is satisfied, classified in
// simulated time (the sequential drive loop cannot exhibit real
// concurrency): first session of a profile per topology epoch is the
// search leader; sessions starting while the leader is in flight collapse
// onto it and finish when it does; everyone else hits the cache. Every
// service start also performs the real negotiation against the fleet, so
// the simulation's classification is checkable against the proxies' own
// counters: simulated searches == real searches, exactly.

// Arrival-curve names.
const (
	ArrivalConstant = "constant"
	ArrivalDiurnal  = "diurnal"
	ArrivalFlash    = "flash"
)

// FleetLoadConfig parameterizes one load run.
type FleetLoadConfig struct {
	Shards   int    // proxy shards (>= 1)
	Workers  int    // simulated negotiation workers per shard
	Sessions int    // client sessions to drive
	Profiles int    // distinct client profiles (device x network scalars)
	Arrival  string // constant | diurnal | flash
	Seed     int64  // drives profiles, assignment, and arrival times

	// Horizon is the simulated span over which arrivals land. Shorter
	// horizons push the tier into saturation; the makespan extends past
	// the horizon until the queues drain.
	Horizon time.Duration

	// Repushes is the number of topology re-pushes injected at evenly
	// spaced simulated times: each bumps every PAD's version, fans out the
	// digest-keyed invalidation, and forces the next session per profile
	// to search again.
	Repushes int

	Replicas      int // warm-replication factor (fleet.Config.Replicas)
	CacheCapacity int // per-shard cache entries; 0 = fit all profiles

	// Simulated service times by outcome.
	SearchCost   time.Duration // path search (cold key) service time
	HitCost      time.Duration // adaptation-cache hit service time
	CollapseCost time.Duration // joining an in-flight search, after the leader finishes

	SessionRequests int // requests per session (the paper's 75)
}

// DefaultFleetLoadConfig is the benchmark shape: a million sessions over
// eight shards in a two-second arrival horizon — enough demand to
// saturate a single shard ~7x over.
func DefaultFleetLoadConfig() FleetLoadConfig {
	return FleetLoadConfig{
		Shards:          8,
		Workers:         4,
		Sessions:        1_000_000,
		Profiles:        4096,
		Arrival:         ArrivalConstant,
		Seed:            2005,
		Horizon:         2 * time.Second,
		Repushes:        0,
		Replicas:        1,
		SearchCost:      2 * time.Millisecond,
		HitCost:         50 * time.Microsecond,
		CollapseCost:    10 * time.Microsecond,
		SessionRequests: 75,
	}
}

// normalized fills defaults and validates.
func (c FleetLoadConfig) normalized() (FleetLoadConfig, error) {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Profiles == 0 {
		c.Profiles = 4096
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalConstant
	}
	if c.Horizon == 0 {
		c.Horizon = 2 * time.Second
	}
	if c.SearchCost == 0 {
		c.SearchCost = 2 * time.Millisecond
	}
	if c.HitCost == 0 {
		c.HitCost = 50 * time.Microsecond
	}
	if c.CollapseCost == 0 {
		c.CollapseCost = 10 * time.Microsecond
	}
	if c.SessionRequests == 0 {
		c.SessionRequests = 75
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.CacheCapacity == 0 {
		// Hold every profile with headroom: eviction would make the real
		// proxies search more often than the simulated classification,
		// breaking the searches-match invariant the harness asserts. The
		// adaptation cache splits capacity across up to 16 internal LRU
		// shards, so 4x leaves room for hash imbalance and replication.
		c.CacheCapacity = 4 * c.Profiles
	}
	if c.Shards < 1 || c.Workers < 1 || c.Sessions < 1 || c.Profiles < 1 || c.Repushes < 0 {
		return c, fmt.Errorf("experiment: fleet load counts must be positive: %+v", c)
	}
	if max := int(1) << 29; c.Sessions > max {
		return c, fmt.Errorf("experiment: at most %d sessions per run, got %d", max, c.Sessions)
	}
	switch c.Arrival {
	case ArrivalConstant, ArrivalDiurnal, ArrivalFlash:
	default:
		return c, fmt.Errorf("experiment: unknown arrival curve %q", c.Arrival)
	}
	return c, nil
}

// ShardLoad is one shard's slice of the run.
type ShardLoad struct {
	Name        string
	Sessions    int64
	Hits        int64
	Searches    int64
	Collapsed   int64
	BusyNanos   int64   // summed service time
	PeakQueue   int     // deepest FIFO backlog observed
	Utilization float64 // BusyNanos / (Workers x makespan)
	P50         int64   // per-shard session latency percentiles, simulated ns
	P99         int64
	P999        int64
}

// FleetLoadResult is the run's measurement set. All latencies are
// simulated nanoseconds from a session's arrival to its completion
// (queueing + service).
type FleetLoadResult struct {
	Config   FleetLoadConfig
	Makespan time.Duration // arrival of first session to completion of last

	// Global latency distribution (merged across shards).
	P50, P99, P999 int64
	Mean, Max      int64

	// SimSessionsPerSec is Sessions divided by the simulated makespan:
	// the tier's modeled capacity, the figure the 1->8 shard scaling gate
	// reads. Deterministic, unlike wall-clock throughput.
	SimSessionsPerSec float64

	HitRate      float64 // simulated cache-hit fraction
	CollapseRate float64 // simulated collapsed-search fraction

	// AllocsPerSession is real allocations in the drive loop divided by
	// sessions (runtime.ReadMemStats delta): the bench gate pins it
	// constant across shard counts.
	AllocsPerSession float64

	Shards []ShardLoad
	Fleet  fleet.Stats // coherence counters (invalidations, replication)
	Proxy  proxy.Stats // real aggregated negotiation counters
}

// loadApp is the case-study topology (Figure 8) the load fleet serves:
// three PADs whose costs split the profile space across different
// winners. version stamps each PAD so repushes change the topology
// digest.
func loadApp(version string) core.AppMeta {
	pad := func(id, proto string, clientStd time.Duration, traffic int64) core.PADMeta {
		return core.PADMeta{
			ID: id, Version: version, Protocol: proto, Size: 4096,
			Overhead: core.PADOverhead{ClientCompStd: clientStd, TrafficBytes: traffic},
		}
	}
	return core.AppMeta{
		AppID: "webapp",
		PADs: []core.PADMeta{
			pad("pad-direct", "direct", 0, 140000),
			pad("pad-gzip", "gzip", 40*time.Millisecond, 50000),
			pad("pad-bitmap", "bitmap", 85*time.Millisecond, 30000),
		},
	}
}

// loadProfiles generates the distinct client profiles: a seeded mix of
// the case study's two device classes and three networks, with scalar
// CPU/bandwidth spreads that make every profile's cache key unique.
// Returns the environments and each profile's rendezvous shard.
func loadProfiles(cfg FleetLoadConfig, router *fleet.Router) ([]core.Env, []int32) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	envs := make([]core.Env, cfg.Profiles)
	shards := make([]int32, cfg.Profiles)
	nets := []struct {
		name string
		bw   float64
	}{
		{core.NetLAN, 100000},
		{core.NetWLAN, 11000},
		{core.NetBluetooth, 723},
	}
	for i := range envs {
		nw := nets[rng.Intn(len(nets))]
		var dev core.DevMeta
		if rng.Intn(2) == 0 {
			dev = core.DevMeta{OSType: core.OSFedora, CPUType: core.CPUTypeP4, CPUMHz: 2000, MemMB: 512}
		} else {
			dev = core.DevMeta{OSType: core.OSWinCE, CPUType: core.CPUTypePXA255, CPUMHz: 400, MemMB: 64}
		}
		// Injective scalar spread: (i/64, i%64) perturb CPU and bandwidth,
		// so no two profiles share a cache key even within a class.
		dev.CPUMHz += float64(i >> 6)
		env := core.Env{Dev: dev, Ntwk: core.NtwkMeta{NetworkType: nw.name, BandwidthKbps: nw.bw + float64(i&63)}}
		envs[i] = env
		shards[i] = int32(router.Shard(core.NewCacheKey("webapp", "", env).Hash()))
	}
	return envs, shards
}

// arrivalSlots is the resolution of the integer arrival-curve weight
// table. All curves are integer-weighted so sampling is exact and
// portable: no float accumulation, no math.Sin.
const arrivalSlots = 1024

// arrivalWeights renders the named curve as per-slot weights across the
// horizon.
func arrivalWeights(curve string) [arrivalSlots]int64 {
	var w [arrivalSlots]int64
	switch curve {
	case ArrivalDiurnal:
		// Triangle wave: quiet edges, a mid-horizon peak ~9x the trough.
		for i := range w {
			d := i
			if d > arrivalSlots-1-i {
				d = arrivalSlots - 1 - i
			}
			w[i] = int64(64 + d)
		}
	case ArrivalFlash:
		// Flat background with a flash crowd in [45%, 50%) of the horizon:
		// those 5% of slots carry ~46% of the arrivals.
		for i := range w {
			w[i] = 8
			if i >= arrivalSlots*45/100 && i < arrivalSlots*50/100 {
				w[i] = 128
			}
		}
	default: // constant
		for i := range w {
			w[i] = 1
		}
	}
	return w
}

// sampleArrivals draws each session's arrival offset in [0, horizon) by
// integer inverse-CDF over the slot weights.
func sampleArrivals(rng *rand.Rand, n int, horizon time.Duration, w [arrivalSlots]int64) []time.Duration {
	var cum [arrivalSlots]int64
	var total int64
	for i, wi := range w {
		total += wi
		cum[i] = total
	}
	slotWidth := int64(horizon) / arrivalSlots
	if slotWidth < 1 {
		slotWidth = 1
	}
	out := make([]time.Duration, n)
	for s := range out {
		r := rng.Int63n(total)
		// Binary search the cumulative table for the first slot with cum > r.
		lo, hi := 0, arrivalSlots-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] > r {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out[s] = time.Duration(int64(lo)*slotWidth + rng.Int63n(slotWidth))
	}
	return out
}

// shardState is one simulated shard's scheduler: a worker pool and a FIFO
// backlog, plus its slice of the measurement.
type shardState struct {
	busy      int
	queue     []int32 // waiting session ids; head indexes the front
	head      int
	peakQueue int

	hits, searches, collapsed int64
	busyNanos                 int64
	hist                      *fleet.Hist
}

func (s *shardState) pushWait(id int32) {
	s.queue = append(s.queue, id)
	if depth := len(s.queue) - s.head; depth > s.peakQueue {
		s.peakQueue = depth
	}
}

func (s *shardState) popWait() (int32, bool) {
	if s.head == len(s.queue) {
		return 0, false
	}
	id := s.queue[s.head]
	s.head++
	if s.head > 4096 && s.head*2 > len(s.queue) {
		s.queue = append(s.queue[:0], s.queue[s.head:]...)
		s.head = 0
	}
	return id, true
}

// RunFleetLoad drives one configured load run and returns its
// measurements. Two calls with equal configurations return equal results
// (AllocsPerSession aside, which reflects the real heap).
func RunFleetLoad(cfg FleetLoadConfig) (FleetLoadResult, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return FleetLoadResult{}, err
	}
	ms, err := core.CaseStudyMatrices()
	if err != nil {
		return FleetLoadResult{}, err
	}
	model := core.OverheadModel{
		Matrices:          ms,
		Rho:               netsim.DefaultRho,
		ServerCPUMHz:      netsim.ServerDevice.CPUMHz,
		IncludeServerComp: true,
		SessionRequests:   cfg.SessionRequests,
	}
	fl, err := fleet.New(fleet.Config{
		Shards:        cfg.Shards,
		Model:         model,
		CacheCapacity: cfg.CacheCapacity,
		Replicas:      cfg.Replicas,
	})
	if err != nil {
		return FleetLoadResult{}, err
	}
	if err := fl.PushAppMeta(loadApp("1.0")); err != nil {
		return FleetLoadResult{}, err
	}

	envs, profShard := loadProfiles(cfg, fl.Router())

	// Struct-of-arrays session table: parallel slices, no per-session
	// struct, no pointers for the GC to chase.
	n := cfg.Sessions
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	arrival := sampleArrivals(rng, n, cfg.Horizon, arrivalWeights(cfg.Arrival))
	profile := make([]int32, n)
	for i := range profile {
		profile[i] = int32(rng.Intn(cfg.Profiles))
	}

	// Event ids: [0,n) arrivals, [n,2n) completions, [2n,2n+R) repushes.
	q := netsim.NewEventQueue(n + cfg.Repushes + 64)
	for i := 0; i < n; i++ {
		q.Push(arrival[i], int32(i))
	}
	for k := 0; k < cfg.Repushes; k++ {
		at := cfg.Horizon * time.Duration(k+1) / time.Duration(cfg.Repushes+1)
		q.Push(at, int32(2*n+k))
	}

	shards := make([]shardState, cfg.Shards)
	for i := range shards {
		shards[i].hist = fleet.NewHist()
	}
	seen := make([]bool, cfg.Profiles)      // profile served this epoch
	leaderOf := make([]int32, cfg.Profiles) // in-flight search leader, -1 = none
	leaderDone := make([]int64, cfg.Profiles)
	for i := range leaderOf {
		leaderOf[i] = -1
	}
	epoch := 0

	var driveErr error
	// startService classifies the session in simulated time, performs the
	// real negotiation, and schedules its completion.
	startService := func(sid int32, now time.Duration) {
		p := profile[sid]
		sh := &shards[profShard[p]]
		sh.busy++
		var cost time.Duration
		switch {
		case seen[p]:
			sh.hits++
			cost = cfg.HitCost
		case leaderOf[p] >= 0:
			sh.collapsed++
			cost = time.Duration(leaderDone[p]) - now + cfg.CollapseCost
		default:
			sh.searches++
			cost = cfg.SearchCost
			leaderOf[p] = sid
			leaderDone[p] = int64(now + cost)
		}
		if driveErr == nil {
			if _, _, _, err := fl.NegotiateFor("", "webapp", envs[p], cfg.SessionRequests); err != nil {
				driveErr = fmt.Errorf("experiment: fleet load session %d (profile %d): %w", sid, p, err)
			}
		}
		sh.busyNanos += int64(cost)
		q.Push(now+cost, int32(int(sid)+n))
	}

	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	var makespan time.Duration
	var completed int64
	for {
		now, id, ok := q.Pop()
		if !ok {
			break
		}
		switch {
		case int(id) < n: // arrival
			sh := &shards[profShard[profile[id]]]
			if sh.busy < cfg.Workers {
				startService(id, now)
			} else {
				sh.pushWait(id)
			}
		case int(id) < 2*n: // completion
			sid := id - int32(n)
			p := profile[sid]
			sh := &shards[profShard[p]]
			sh.hist.Record(int64(now - arrival[sid]))
			completed++
			if now > makespan {
				makespan = now
			}
			if leaderOf[p] == sid {
				leaderOf[p] = -1
				seen[p] = true
			}
			sh.busy--
			if next, ok := sh.popWait(); ok {
				startService(next, now)
			}
		default: // topology repush: new epoch, caches invalid everywhere
			epoch++
			if err := fl.PushAppMeta(loadApp(fmt.Sprintf("1.%d", epoch))); err != nil {
				return FleetLoadResult{}, err
			}
			for i := range seen {
				seen[i] = false
				leaderOf[i] = -1
			}
		}
	}
	runtime.ReadMemStats(&memAfter)
	if driveErr != nil {
		return FleetLoadResult{}, driveErr
	}
	if completed != int64(n) {
		return FleetLoadResult{}, fmt.Errorf("experiment: %d of %d sessions completed", completed, n)
	}

	global := fleet.NewHist()
	res := FleetLoadResult{
		Config:   cfg,
		Makespan: makespan,
		Shards:   make([]ShardLoad, cfg.Shards),
		Fleet:    fl.Stats(),
		Proxy:    fl.AggregateStats(),
	}
	var hits, searches, collapsed int64
	for i := range shards {
		sh := &shards[i]
		global.Merge(sh.hist)
		hits += sh.hits
		searches += sh.searches
		collapsed += sh.collapsed
		util := 0.0
		if makespan > 0 {
			util = float64(sh.busyNanos) / (float64(cfg.Workers) * float64(makespan))
		}
		res.Shards[i] = ShardLoad{
			Name:        fl.Router().Name(i),
			Sessions:    sh.hist.Count(),
			Hits:        sh.hits,
			Searches:    sh.searches,
			Collapsed:   sh.collapsed,
			BusyNanos:   sh.busyNanos,
			PeakQueue:   sh.peakQueue,
			Utilization: util,
			P50:         sh.hist.Quantile(0.50),
			P99:         sh.hist.Quantile(0.99),
			P999:        sh.hist.Quantile(0.999),
		}
	}
	res.P50 = global.Quantile(0.50)
	res.P99 = global.Quantile(0.99)
	res.P999 = global.Quantile(0.999)
	res.Mean = global.Mean()
	res.Max = global.Max()
	if makespan > 0 {
		res.SimSessionsPerSec = float64(n) / makespan.Seconds()
	}
	res.HitRate = float64(hits) / float64(n)
	res.CollapseRate = float64(collapsed) / float64(n)
	res.AllocsPerSession = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(n)

	// Cross-check the simulation against the real tier: every simulated
	// search ran a real one, and every session really negotiated.
	if res.Proxy.Searches != searches {
		return FleetLoadResult{}, fmt.Errorf("experiment: simulated %d searches but proxies ran %d", searches, res.Proxy.Searches)
	}
	if res.Proxy.Negotiations != int64(n) {
		return FleetLoadResult{}, fmt.Errorf("experiment: %d sessions but %d real negotiations", n, res.Proxy.Negotiations)
	}
	return res, nil
}

// Rows renders the run for the bench harness: a global summary row and
// one row per shard.
func (r FleetLoadResult) Rows() []string {
	rows := []string{
		"scope\tsessions\tp50_ns\tp99_ns\tp999_ns\tmax_ns\tsim_sessions_per_sec\thit_rate\tcollapse_rate\tutilization\tpeak_queue",
		fmt.Sprintf("fleet/%d\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.4f\t%.4f\t-\t-",
			r.Config.Shards, r.Config.Sessions, r.P50, r.P99, r.P999, r.Max,
			r.SimSessionsPerSec, r.HitRate, r.CollapseRate),
	}
	for _, s := range r.Shards {
		rows = append(rows, fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t-\t-\t-\t-\t%.3f\t%d",
			s.Name, s.Sessions, s.P50, s.P99, s.P999, s.Utilization, s.PeakQueue))
	}
	return rows
}
