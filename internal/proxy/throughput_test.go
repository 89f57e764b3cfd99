package proxy

import (
	"sync"
	"testing"
	"time"

	"fractal/internal/core"
)

// TestNegotiateSingleflightExactlyOneSearchPerKey is the cold-cache
// hammer (run under -race in CI): many goroutines negotiate a small set of
// unique cache keys concurrently, and the proxy must run exactly one path
// search per unique key — every other caller either joins the in-flight
// search or hits the cache the leader filled.
func TestNegotiateSingleflightExactlyOneSearchPerKey(t *testing.T) {
	p := newTestProxy(t)
	const (
		uniqueKeys = 8
		perKey     = 16
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, uniqueKeys*perKey)
	for k := 0; k < uniqueKeys; k++ {
		env := desktopEnv()
		env.Dev.CPUMHz = float64(1000 + k) // distinct cache key per k
		for g := 0; g < perKey; g++ {
			wg.Add(1)
			go func(env core.Env) {
				defer wg.Done()
				<-start
				if _, err := p.Negotiate("webapp", env, 75); err != nil {
					errs <- err
				}
			}(env)
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Searches != uniqueKeys {
		t.Errorf("Searches = %d, want exactly %d (one per unique key)", st.Searches, uniqueKeys)
	}
	if st.Negotiations != uniqueKeys*perKey {
		t.Errorf("Negotiations = %d, want %d", st.Negotiations, uniqueKeys*perKey)
	}
	if got := st.CacheHits + st.Searches + st.CollapsedSearches; got != st.Negotiations {
		t.Errorf("CacheHits(%d) + Searches(%d) + CollapsedSearches(%d) = %d, want Negotiations = %d",
			st.CacheHits, st.Searches, st.CollapsedSearches, got, st.Negotiations)
	}
}

// TestNegotiateCollapsesConcurrentMisses pins that followers arriving while
// a search is in flight join it rather than queueing their own: a blocking
// authorizer holds the leader inside the search until every follower has
// reached NegotiateFor.
func TestNegotiateCollapsesConcurrentMisses(t *testing.T) {
	p := newTestProxy(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	p.SetAuthorizer(AuthorizerFunc(func(principal, appID string, pad core.PADMeta) bool {
		once.Do(func() {
			close(entered)
			<-release
		})
		return true
	}))
	const followers = 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Negotiate("webapp", desktopEnv(), 75); err != nil {
			t.Error(err)
		}
	}()
	<-entered // the leader is now blocked mid-search
	var ready sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			if _, err := p.Negotiate("webapp", desktopEnv(), 75); err != nil {
				t.Error(err)
			}
		}()
	}
	ready.Wait()
	time.Sleep(100 * time.Millisecond) // let followers reach the singleflight
	close(release)
	wg.Wait()
	st := p.Stats()
	if st.Searches != 1 {
		t.Errorf("Searches = %d, want 1", st.Searches)
	}
	if st.CollapsedSearches < 1 {
		t.Errorf("CollapsedSearches = %d, want >= 1 (followers blocked behind the leader)", st.CollapsedSearches)
	}
	if got := st.CacheHits + st.Searches + st.CollapsedSearches; got != st.Negotiations {
		t.Errorf("counter invariant broken: %d hits + %d searches + %d collapsed != %d negotiations",
			st.CacheHits, st.Searches, st.CollapsedSearches, st.Negotiations)
	}
}

// TestNegotiateStatsSequential pins the counter semantics on the simple
// paths: a cold negotiation is a Search, a repeat is a CacheHit.
func TestNegotiateStatsSequential(t *testing.T) {
	p := newTestProxy(t)
	if _, err := p.Negotiate("webapp", desktopEnv(), 75); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Searches != 1 || st.CacheHits != 0 || st.CollapsedSearches != 0 {
		t.Fatalf("after cold negotiation: %+v", st)
	}
	if _, err := p.Negotiate("webapp", desktopEnv(), 75); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Searches != 1 || st.CacheHits != 1 {
		t.Fatalf("after warm negotiation: %+v", st)
	}
}
