//go:build !race

package proxy

import "testing"

// TestNegotiateForHitAllocs pins the warm path: a cache hit builds and
// hashes its key without allocating, so the only allocation is the
// defensive copy of the cached result.
func TestNegotiateForHitAllocs(t *testing.T) {
	p := newTestProxy(t)
	env := pdaEnv()
	if _, _, err := p.NegotiateFor("alice", "webapp", env, 75); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, _, err := p.NegotiateFor("alice", "webapp", env, 75); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 1 {
		t.Fatalf("warm NegotiateFor allocates %.1f/op, want 1 (the result copy)", avg)
	}
}
