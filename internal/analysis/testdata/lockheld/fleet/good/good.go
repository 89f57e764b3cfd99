// Package fleet is the lockheld fleet good fixture: the invalidation
// fan-out snapshots its ledger under the mutex, releases it, and only
// then sends to shards — the discipline fleet.Fleet.PushAppMeta follows.
package fleet

import (
	"sync"

	"fractal/internal/core"
	"fractal/internal/proxy"
)

type tier struct {
	mu      sync.Mutex
	applied map[string]bool
	shards  []*proxy.Proxy
}

// pushSnapshotThenSend decides the fan-out under the lock, releases it,
// and re-acquires only briefly to record each applied push. No lock is
// held across a shard send.
func pushSnapshotThenSend(t *tier, app core.AppMeta) error {
	t.mu.Lock()
	targets := make([]*proxy.Proxy, 0, len(t.shards))
	if !t.applied[app.AppID] {
		targets = append(targets, t.shards...)
	}
	t.mu.Unlock()

	for _, s := range targets {
		if err := s.PushAppMeta(app); err != nil {
			return err
		}
		t.mu.Lock()
		t.applied[app.AppID] = true
		t.mu.Unlock()
	}
	return nil
}

// negotiateUnlocked routes without touching the ledger at all: the
// routing function is pure and the shard owns its own synchronization.
func negotiateUnlocked(t *tier, env core.Env) ([]core.PADMeta, error) {
	pads, _, err := t.shards[0].NegotiateFor("", "app", env, 1)
	return pads, err
}
