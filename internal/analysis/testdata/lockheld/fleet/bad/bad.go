// Package fleet is the lockheld fleet bad fixture: the coherence ledger
// held across cross-shard sends. A shard push rebuilds the target's PAT
// (and may verify modules) and a routed negotiation can run a full path
// search, so one slow shard stalls the entire tier behind the lock.
package fleet

import (
	"sync"

	"fractal/internal/core"
	"fractal/internal/proxy"
)

// tier is the fan-out shape: a ledger mutex guarding applied digests and
// the shard set the push iterates.
type tier struct {
	mu      sync.Mutex
	applied map[string]bool
	shards  []*proxy.Proxy
}

// pushHoldingLedger holds the ledger across every shard push in the
// invalidation fan-out.
func pushHoldingLedger(t *tier, app core.AppMeta) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.shards {
		s.PushAppMeta(app) //want lockheld:3
		t.applied[app.AppID] = true
	}
}

// negotiateHoldingLedger routes a session while holding the ledger: the
// shard-side negotiation may join or run a collapsed search.
func negotiateHoldingLedger(t *tier, env core.Env) ([]core.PADMeta, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pads, _, err := t.shards[0].NegotiateFor("", "app", env, 1) //want lockheld:18
	return pads, err
}
