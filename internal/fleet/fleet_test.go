package fleet

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"fractal/internal/core"
	"fractal/internal/proxy"
)

// Test fixtures mirror the proxy package's case-study setup (Figure 8):
// a one-level PAT whose three PADs win under different environments.

func testApp() core.AppMeta {
	pad := func(id, proto string, clientStd time.Duration, traffic int64) core.PADMeta {
		return core.PADMeta{
			ID: id, Protocol: proto, Size: 4096,
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

func testModel(t testing.TB) core.OverheadModel {
	t.Helper()
	ms, err := core.CaseStudyMatrices()
	if err != nil {
		t.Fatal(err)
	}
	return core.OverheadModel{
		Matrices:          ms,
		Rho:               0.8,
		ServerCPUMHz:      2000,
		IncludeServerComp: true,
		SessionRequests:   75,
	}
}

// testEnvs spans the case-study hardware/network grid with varied scalar
// profiles, so the differential test covers many distinct cache keys and
// several distinct winning PADs.
func testEnvs() []core.Env {
	type hw struct {
		os, cpu string
		mhz     float64
		mem     int
	}
	type nw struct {
		net string
		bw  float64
	}
	hws := []hw{
		{core.OSFedora, core.CPUTypeP4, 2000, 512},
		{core.OSFedora, core.CPUTypeP4, 1000, 256},
		{core.OSWinCE, core.CPUTypePXA255, 400, 64},
		{core.OSWinCE, core.CPUTypePXA255, 200, 32},
	}
	nws := []nw{
		{core.NetLAN, 100000},
		{core.NetWLAN, 11000},
		{core.NetWLAN, 2000},
		{core.NetBluetooth, 723},
		{core.NetBluetooth, 150},
	}
	var envs []core.Env
	for _, h := range hws {
		for _, n := range nws {
			envs = append(envs, core.Env{
				Dev:  core.DevMeta{OSType: h.os, CPUType: h.cpu, CPUMHz: h.mhz, MemMB: h.mem},
				Ntwk: core.NtwkMeta{NetworkType: n.net, BandwidthKbps: n.bw},
			})
		}
	}
	return envs
}

func newTestFleet(t testing.TB, shards, replicas int) *Fleet {
	t.Helper()
	f, err := New(Config{Shards: shards, Model: testModel(t), CacheCapacity: 256, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PushAppMeta(testApp()); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFleetConfigValidate(t *testing.T) {
	model := testModel(t)
	bad := []Config{
		{Shards: 0, Model: model, CacheCapacity: 16},
		{Shards: 4, Model: model, CacheCapacity: 0},
		{Shards: 2, Model: model, CacheCapacity: 16, Replicas: 3},
		{Shards: 16, Model: model, CacheCapacity: 16, Replicas: maxReplicas + 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestFleetDifferentialSingleProxy pins the routing-transparency contract:
// for every environment, the sharded tier returns byte-identical prepared
// PAD lists to a single proxy over the same model and topology —
// rendezvous routing, coherence, and replication change where work runs,
// never what the client receives.
func TestFleetDifferentialSingleProxy(t *testing.T) {
	single, err := proxy.New(testModel(t), 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.PushAppMeta(testApp()); err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []int{1, 3} {
		f := newTestFleet(t, 5, replicas)
		for pass := 0; pass < 2; pass++ { // pass 0 fills caches, pass 1 hits them
			for _, env := range testEnvs() {
				want, err := single.Negotiate("webapp", env, 75)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.Negotiate("webapp", env, 75)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if string(wantJSON) != string(gotJSON) {
					t.Fatalf("replicas=%d pass=%d env=%+v:\n fleet  %s\n single %s",
						replicas, pass, env, gotJSON, wantJSON)
				}
			}
		}
	}
}

func TestFleetRoutesToOwner(t *testing.T) {
	f := newTestFleet(t, 8, 1)
	perShard := make([]int64, 8)
	for _, env := range testEnvs() {
		_, _, shard, err := f.NegotiateFor("", "webapp", env, 75)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Router().Shard(core.NewCacheKey("webapp", "", env).Hash()); shard != want {
			t.Fatalf("negotiation ran on shard %d, router owns %d", shard, want)
		}
		perShard[shard]++
	}
	agg := f.AggregateStats()
	if agg.Negotiations != int64(len(testEnvs())) {
		t.Fatalf("aggregate negotiations %d, want %d", agg.Negotiations, len(testEnvs()))
	}
	var busy int
	for i := range perShard {
		if st := f.ShardStats(i); st.Negotiations != perShard[i] {
			t.Fatalf("shard %d counted %d negotiations, routed %d", i, st.Negotiations, perShard[i])
		}
		if perShard[i] > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("all sessions landed on %d shard(s); routing is degenerate", busy)
	}
}

// TestFleetDigestSuppression exercises the coherence ledger: re-pushing an
// identical topology reaches no shard, while a changed PAD version fans
// out to (and invalidates) all of them.
func TestFleetDigestSuppression(t *testing.T) {
	f := newTestFleet(t, 4, 1)
	if s := f.Stats(); s.InvalidationsApplied != 4 || s.InvalidationsSuppressed != 0 {
		t.Fatalf("after first push: %+v", s)
	}

	// Identical push: every leg suppressed, no shard-side invalidation.
	pushes := f.AggregateStats().TopologyPushes
	if err := f.PushAppMeta(testApp()); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.InvalidationsApplied != 4 || s.InvalidationsSuppressed != 4 {
		t.Fatalf("after duplicate push: %+v", s)
	}
	if got := f.AggregateStats().TopologyPushes; got != pushes {
		t.Fatalf("duplicate push reached shards: %d pushes, want %d", got, pushes)
	}

	// Fill a cache entry, then push a changed topology: the fan-out must
	// reach every shard and invalidate the entry (next negotiate searches).
	env := testEnvs()[0]
	if _, err := f.Negotiate("webapp", env, 75); err != nil {
		t.Fatal(err)
	}
	app := testApp()
	app.PADs[1].Version = "v2"
	if err := f.PushAppMeta(app); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.InvalidationsApplied != 8 || s.InvalidationsSuppressed != 4 {
		t.Fatalf("after changed push: %+v", s)
	}
	searches := f.AggregateStats().Searches
	if _, outcome, _, err := f.NegotiateFor("", "webapp", env, 75); err != nil {
		t.Fatal(err)
	} else if outcome != proxy.OutcomeSearch {
		t.Fatalf("post-invalidation negotiation outcome %v, want search", outcome)
	}
	if got := f.AggregateStats().Searches; got != searches+1 {
		t.Fatalf("post-invalidation searches %d, want %d", got, searches+1)
	}
}

func TestFleetWarmReplication(t *testing.T) {
	f := newTestFleet(t, 5, 3)
	env := testEnvs()[0]
	pads, outcome, _, err := f.NegotiateFor("", "webapp", env, 75)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != proxy.OutcomeSearch {
		t.Fatalf("first negotiation outcome %v, want search", outcome)
	}
	if s := f.Stats(); s.ReplicatedFills != 2 {
		t.Fatalf("replicated fills %d, want 2 (replicas-1)", s.ReplicatedFills)
	}

	// Each rendezvous successor must now answer from cache, with no search
	// of its own, and return the identical prepared result.
	var buf [maxReplicas]int
	ranked := f.Router().TopK(core.NewCacheKey("webapp", "", env).Hash(), 3, buf[:0])
	for _, idx := range ranked[1:] {
		before := f.ShardStats(idx)
		got, outcome, err := f.Shard(idx).NegotiateFor("", "webapp", env, 75)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != proxy.OutcomeHit {
			t.Fatalf("successor shard %d outcome %v, want hit", idx, outcome)
		}
		if after := f.ShardStats(idx); after.Searches != before.Searches {
			t.Fatalf("successor shard %d searched", idx)
		}
		wantJSON, _ := json.Marshal(pads)
		gotJSON, _ := json.Marshal(got)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("successor shard %d replica differs:\n %s\n %s", idx, gotJSON, wantJSON)
		}
	}

	// A shard outside the replica set must not have been seeded.
	for i := 0; i < f.Shards(); i++ {
		inSet := false
		for _, idx := range ranked {
			if i == idx {
				inSet = true
			}
		}
		if inSet {
			continue
		}
		before := f.ShardStats(i)
		if _, outcome, err := f.Shard(i).NegotiateFor("", "webapp", env, 75); err != nil {
			t.Fatal(err)
		} else if outcome == proxy.OutcomeHit {
			t.Fatalf("non-replica shard %d unexpectedly warm", i)
		}
		if after := f.ShardStats(i); after.Searches != before.Searches+1 {
			t.Fatalf("non-replica shard %d searches %d->%d, want +1", i, before.Searches, after.Searches)
		}
	}
}

// TestFleetColdKeyStampedeCollapses pins the ISSUE's coherence guarantee:
// a fleet-wide stampede on one cold key triggers exactly one path search —
// routing concentrates the key on one shard, whose singleflight collapses
// the rest.
func TestFleetColdKeyStampedeCollapses(t *testing.T) {
	f := newTestFleet(t, 8, 1)
	env := testEnvs()[3]

	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	start := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, _, _, err := f.NegotiateFor("", "webapp", env, 75)
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	agg := f.AggregateStats()
	if agg.Searches != 1 {
		t.Fatalf("fleet-wide stampede ran %d searches, want exactly 1", agg.Searches)
	}
	if agg.Negotiations != callers {
		t.Fatalf("negotiations %d, want %d", agg.Negotiations, callers)
	}
	if agg.CacheHits+agg.CollapsedSearches != callers-1 {
		t.Fatalf("hits %d + collapsed %d, want %d", agg.CacheHits, agg.CollapsedSearches, callers-1)
	}
}

func TestFleetPrincipalPartitioning(t *testing.T) {
	f := newTestFleet(t, 4, 1)
	env := testEnvs()[0]
	if _, _, _, err := f.NegotiateFor("alice", "webapp", env, 75); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := f.NegotiateFor("bob", "webapp", env, 75); err != nil {
		t.Fatal(err)
	}
	// Distinct principals must not share cache entries even in one env.
	if agg := f.AggregateStats(); agg.Searches != 2 {
		t.Fatalf("two principals shared a search: %+v", agg)
	}
	if _, _, _, err := f.NegotiateFor("alice", "webapp", env, 75); err != nil {
		t.Fatal(err)
	}
	if agg := f.AggregateStats(); agg.CacheHits != 1 {
		t.Fatalf("repeat principal negotiation missed: %+v", agg)
	}
}

func TestTopologyDigestSensitivity(t *testing.T) {
	base := TopologyDigest(testApp())
	if TopologyDigest(testApp()) != base {
		t.Fatal("digest not deterministic")
	}
	mutations := []func(*core.AppMeta){
		func(a *core.AppMeta) { a.AppID = "webapp2" },
		func(a *core.AppMeta) { a.PADs[0].Version = "v9" },
		func(a *core.AppMeta) { a.PADs[1].Protocol = "lzma" },
		func(a *core.AppMeta) { a.PADs[2].Parent = "pad-direct" },
		func(a *core.AppMeta) { a.PADs[0].Alias = "x" },
		func(a *core.AppMeta) { a.PADs[0].Digest[0] ^= 1 },
		func(a *core.AppMeta) { a.PADs = a.PADs[:2] },
	}
	for i, mutate := range mutations {
		app := testApp()
		mutate(&app)
		if TopologyDigest(app) == base {
			t.Errorf("mutation %d left the topology digest unchanged", i)
		}
	}
}
