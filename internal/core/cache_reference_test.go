package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// cacheKeyReference is the fmt-based canonical key string the adaptation
// cache, proxy and fleet router were keyed by before CacheKey became a
// comparable value. It stays as the reference for which sessions share an
// entry and for the routing hash.
func cacheKeyReference(appID, principal string, env Env) string {
	return fmt.Sprintf("app=%s|who=%s|os=%s|cpu=%s|mhz=%.0f|mem=%d|net=%s|bw=%.0f",
		appID, principal, env.Dev.OSType, env.Dev.CPUType, env.Dev.CPUMHz, env.Dev.MemMB,
		env.Ntwk.NetworkType, env.Ntwk.BandwidthKbps)
}

// fnv64aReference hashes s with the standard library's FNV-1a 64.
func fnv64aReference(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// keyCase is one (app, principal, env) negotiation for quick.Check. Its
// text fields come from small pools free of the '|' separator, where the
// reference string is unambiguous, so pairs collide often; its scalars mix
// x.5 ties, values below 1, whole numbers and magnitudes past 2^63.
type keyCase struct {
	App, Who string
	Env      Env
}

func (keyCase) Generate(r *rand.Rand, _ int) reflect.Value {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	scalar := func() float64 {
		switch r.Intn(5) {
		case 0:
			return float64(r.Intn(6)) + 0.5
		case 1:
			return r.Float64()
		case 2:
			return float64(1 + r.Intn(6))
		case 3:
			return float64(r.Intn(6)) + r.Float64()
		default:
			return math.Ldexp(1+r.Float64(), r.Intn(80))
		}
	}
	return reflect.ValueOf(keyCase{
		App: pick("webapp", "news", ""),
		Who: pick("", "alice"),
		Env: Env{
			Dev:  DevMeta{OSType: pick("fedora", "wince"), CPUType: "cpu", CPUMHz: scalar(), MemMB: 1 + r.Intn(2)},
			Ntwk: NtwkMeta{NetworkType: pick("lan", "bt"), BandwidthKbps: scalar()},
		},
	})
}

func (c keyCase) key() CacheKey { return NewCacheKey(c.App, c.Who, c.Env) }
func (c keyCase) ref() string   { return cacheKeyReference(c.App, c.Who, c.Env) }

// TestCacheKeyEqualityMatchesFmtReference pins the comparable key to the
// string semantics it replaced: two negotiations share a key exactly when
// their reference strings are equal, and Hash is the FNV-1a 64 of that
// string.
func TestCacheKeyEqualityMatchesFmtReference(t *testing.T) {
	f := func(a, b keyCase) bool {
		if (a.key() == b.key()) != (a.ref() == b.ref()) {
			t.Logf("key equality %v, reference equality %v: %q vs %q", a.key() == b.key(), a.ref() == b.ref(), a.ref(), b.ref())
			return false
		}
		for _, c := range []keyCase{a, b} {
			if c.key().Hash() != fnv64aReference(c.ref()) {
				t.Logf("Hash mismatch for %q", c.ref())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// The hash covers the raw field bytes, separators included.
	env := validEnv()
	for _, app := range []string{"news|v2", "a|who=b"} {
		if got, want := NewCacheKey(app, "b|who=", env).Hash(), fnv64aReference(cacheKeyReference(app, "b|who=", env)); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", app, got, want)
		}
	}
}

// TestCacheKeyHashZeroAlloc: building a key and hashing it is on every
// negotiation and allocates nothing.
func TestCacheKeyHashZeroAlloc(t *testing.T) {
	env := validEnv()
	env.Dev.CPUMHz = 1999.5
	var sink uint64
	if avg := testing.AllocsPerRun(200, func() { sink += NewCacheKey("webapp", "alice", env).Hash() }); avg != 0 {
		t.Fatalf("NewCacheKey+Hash allocates %.1f/op, want 0", avg)
	}
}
