package experiment

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"fractal/internal/core"
	"fractal/internal/fleet"
)

// smokeLoadConfig is small enough for CI but saturates a single shard.
func smokeLoadConfig() FleetLoadConfig {
	cfg := DefaultFleetLoadConfig()
	cfg.Sessions = 20000
	cfg.Profiles = 256
	cfg.Horizon = 100 * time.Millisecond
	cfg.Shards = 4
	return cfg
}

func TestFleetLoadDeterministic(t *testing.T) {
	cfg := smokeLoadConfig()
	a, err := RunFleetLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleetLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The heap-delta field reflects the real allocator; everything else is
	// a pure function of (config, seed).
	a.AllocsPerSession, b.AllocsPerSession = 0, 0
	// Real search wall-nanos differ run to run; the simulated figures must not.
	a.Proxy.TotalSearchNanos, b.Proxy.TotalSearchNanos = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\n a: %+v\n b: %+v", a, b)
	}
	if a.P50 <= 0 || a.P99 < a.P50 || a.P999 < a.P99 || a.Max < a.P999 {
		t.Fatalf("percentiles not monotone: p50=%d p99=%d p999=%d max=%d", a.P50, a.P99, a.P999, a.Max)
	}
}

func TestFleetLoadAccounting(t *testing.T) {
	cfg := smokeLoadConfig()
	res, err := RunFleetLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sessions, hits, searches, collapsed int64
	for _, s := range res.Shards {
		sessions += s.Sessions
		hits += s.Hits
		searches += s.Searches
		collapsed += s.Collapsed
	}
	if sessions != int64(cfg.Sessions) {
		t.Fatalf("shard sessions sum to %d, want %d", sessions, cfg.Sessions)
	}
	if hits+searches+collapsed != int64(cfg.Sessions) {
		t.Fatalf("outcomes %d+%d+%d don't partition %d sessions", hits, searches, collapsed, cfg.Sessions)
	}
	// One search leader per touched profile, and the real proxies agree
	// (RunFleetLoad already enforces the equality; pin the magnitude too).
	if searches > int64(cfg.Profiles) {
		t.Fatalf("%d searches for %d profiles with no repushes", searches, cfg.Profiles)
	}
	if res.Proxy.Searches != searches {
		t.Fatalf("real searches %d != simulated %d", res.Proxy.Searches, searches)
	}
	if res.HitRate < 0.9 {
		t.Fatalf("hit rate %.3f, want >0.9 (%d profiles, %d sessions)", res.HitRate, cfg.Profiles, cfg.Sessions)
	}
	if res.Fleet.InvalidationsApplied != int64(cfg.Shards) {
		t.Fatalf("initial push applied %d invalidations, want %d", res.Fleet.InvalidationsApplied, cfg.Shards)
	}
	if res.Makespan < cfg.Horizon {
		t.Fatalf("makespan %v shorter than the arrival horizon %v", res.Makespan, cfg.Horizon)
	}
}

// TestFleetLoadScaling pins the point of the tier: under demand that
// saturates one shard, widening to eight multiplies modeled throughput.
// The committed BENCH_fleet.json shows the >=6x figure at a million
// sessions; this CI-sized check asserts >=4x.
func TestFleetLoadScaling(t *testing.T) {
	cfg := smokeLoadConfig()
	cfg.Sessions = 40000
	run := func(shards int) FleetLoadResult {
		c := cfg
		c.Shards = shards
		res, err := RunFleetLoad(c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	eight := run(8)
	ratio := eight.SimSessionsPerSec / one.SimSessionsPerSec
	if ratio < 4 {
		t.Fatalf("1->8 shard scaling %.2fx (%.0f -> %.0f sessions/sec), want >=4x",
			ratio, one.SimSessionsPerSec, eight.SimSessionsPerSec)
	}
	if one.Shards[0].Utilization < 0.95 {
		t.Fatalf("single shard utilization %.3f; demand does not saturate it", one.Shards[0].Utilization)
	}
	if eight.P99 >= one.P99 {
		t.Fatalf("p99 did not improve with shards: 1-shard %d, 8-shard %d", one.P99, eight.P99)
	}
}

func TestFleetLoadArrivalCurves(t *testing.T) {
	base := smokeLoadConfig()
	results := map[string]FleetLoadResult{}
	for _, curve := range []string{ArrivalConstant, ArrivalDiurnal, ArrivalFlash} {
		cfg := base
		cfg.Arrival = curve
		res, err := RunFleetLoad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[curve] = res
	}
	// A flash crowd packs ~half the arrivals into 5% of the horizon: its
	// queues (and thus tail latency) must dwarf the constant curve's.
	if f, c := results[ArrivalFlash], results[ArrivalConstant]; f.P999 <= c.P999 {
		t.Fatalf("flash p999 %d not above constant p999 %d", f.P999, c.P999)
	}
	peak := func(r FleetLoadResult) int {
		max := 0
		for _, s := range r.Shards {
			if s.PeakQueue > max {
				max = s.PeakQueue
			}
		}
		return max
	}
	if f, c := peak(results[ArrivalFlash]), peak(results[ArrivalConstant]); f <= c {
		t.Fatalf("flash peak queue %d not above constant %d", f, c)
	}
}

// TestFleetLoadRepush drives the coherence plane under load: each repush
// bumps the topology digest, fans out invalidation, and forces one fresh
// search per profile in the new epoch — visible in both the simulated and
// the real counters.
func TestFleetLoadRepush(t *testing.T) {
	cfg := smokeLoadConfig()
	cfg.Repushes = 2
	res, err := RunFleetLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var searches int64
	for _, s := range res.Shards {
		searches += s.Searches
	}
	if searches <= int64(cfg.Profiles) {
		t.Fatalf("%d searches; repushes did not force re-searching (%d profiles)", searches, cfg.Profiles)
	}
	if max := int64(cfg.Profiles) * int64(cfg.Repushes+1); searches > max {
		t.Fatalf("%d searches exceed %d epochs x %d profiles", searches, cfg.Repushes+1, cfg.Profiles)
	}
	want := int64(cfg.Shards) * int64(cfg.Repushes+1)
	if res.Fleet.InvalidationsApplied != want {
		t.Fatalf("invalidations applied %d, want %d (%d pushes x %d shards)",
			res.Fleet.InvalidationsApplied, want, cfg.Repushes+1, cfg.Shards)
	}
}

func TestFleetLoadReplication(t *testing.T) {
	cfg := smokeLoadConfig()
	cfg.Replicas = 2
	res, err := RunFleetLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var searches int64
	for _, s := range res.Shards {
		searches += s.Searches
	}
	if res.Fleet.ReplicatedFills != searches {
		t.Fatalf("replicated fills %d, want one per search (%d)", res.Fleet.ReplicatedFills, searches)
	}
}

func TestFleetLoadConfigValidation(t *testing.T) {
	bad := []func(*FleetLoadConfig){
		func(c *FleetLoadConfig) { c.Shards = 0 },
		func(c *FleetLoadConfig) { c.Sessions = 0 },
		func(c *FleetLoadConfig) { c.Arrival = "sawtooth" },
		func(c *FleetLoadConfig) { c.Repushes = -1 },
		func(c *FleetLoadConfig) { c.Sessions = 1 << 30 },
	}
	for i, mutate := range bad {
		cfg := smokeLoadConfig()
		mutate(&cfg)
		if _, err := RunFleetLoad(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestFleetLoadProfilesRouteAsCanonicalStrings pins BENCH_fleet.json's
// routing: every default load profile lands on the shard that the FNV-1a
// 64 hash of its canonical key string ("app=…|who=…|os=…|cpu=…|mhz=%.0f|
// mem=…|net=…|bw=%.0f"), the form the router once hashed, selects.
func TestFleetLoadProfilesRouteAsCanonicalStrings(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		cfg, err := DefaultFleetLoadConfig().normalized()
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, shards) // fleet.New's shard names
		for i := range names {
			names[i] = fmt.Sprintf("shard-%d", i)
		}
		router, err := fleet.NewRouter(names)
		if err != nil {
			t.Fatal(err)
		}
		envs, profShard := loadProfiles(cfg, router)
		for i, env := range envs {
			ref := fmt.Sprintf("app=%s|who=%s|os=%s|cpu=%s|mhz=%.0f|mem=%d|net=%s|bw=%.0f",
				"webapp", "", env.Dev.OSType, env.Dev.CPUType, env.Dev.CPUMHz, env.Dev.MemMB,
				env.Ntwk.NetworkType, env.Ntwk.BandwidthKbps)
			h := fnv.New64a()
			h.Write([]byte(ref))
			want := router.Shard(h.Sum64())
			if got := router.Shard(core.NewCacheKey("webapp", "", env).Hash()); got != want || int(profShard[i]) != want {
				t.Fatalf("%d shards, profile %d (%s): routed to %d (harness %d), canonical string routes to %d",
					shards, i, ref, got, profShard[i], want)
			}
		}
	}
}
