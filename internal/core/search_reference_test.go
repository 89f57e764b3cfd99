package core

import (
	"fmt"
	"math"
	"testing"
)

// TestFindPathRejectsUncompiledPAT: a zero PAT has no compiled search
// index, and FindPath refuses it instead of falling back to a second
// search implementation.
func TestFindPathRejectsUncompiledPAT(t *testing.T) {
	ms, err := CaseStudyMatrices()
	if err != nil {
		t.Fatal(err)
	}
	model := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1}
	if _, err := FindPath(&PAT{}, model, sweepEnvs()[0]); err == nil {
		t.Fatal("FindPath searched a PAT not built by BuildPAT")
	}
}

// findPathReference is the original map-and-walk implementation of the
// adaptation path search, kept verbatim as the behavioural pin for the
// compiled index: the differential tests drive both over the full
// case-study sweep.
func findPathReference(t *PAT, m OverheadModel, env Env, allow func(PADMeta) bool) (PathResult, error) {
	// Step 1: mark each node with its total overhead (resolving symbolic
	// links so an alias inherits its target's cost).
	marks := map[string]Breakdown{}
	for _, id := range t.allIDs() {
		meta, err := t.Resolve(id)
		if err != nil {
			return PathResult{}, err
		}
		if allow != nil && !allow(meta) {
			marks[id] = Breakdown{ClientComp: math.Inf(1)}
			continue
		}
		b, err := m.PADTotal(meta, env)
		if err != nil {
			return PathResult{}, fmt.Errorf("core: marking PAD %s: %w", id, err)
		}
		marks[id] = b
	}

	// Step 2: DFS over root-to-leaf paths keeping the least total.
	best := PathResult{Total: math.Inf(1)}
	for _, path := range t.Paths() {
		total := 0.0
		for _, id := range path {
			total += marks[id].Total()
		}
		if total < best.Total {
			best = PathResult{NodeIDs: append([]string(nil), path...), Total: total}
		}
	}
	if math.IsInf(best.Total, 1) {
		return PathResult{}, fmt.Errorf("%w for app %s in env {%s %s}", ErrNoFeasiblePath, t.AppID(), env.Dev.Key(), env.Ntwk.Key())
	}

	best.Breakdown = map[string]Breakdown{}
	for _, id := range best.NodeIDs {
		meta, err := t.Resolve(id)
		if err != nil {
			return PathResult{}, err
		}
		best.PADs = append(best.PADs, meta)
		best.Breakdown[id] = marks[id]
	}
	return best, nil
}
