package scheduler

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// warmEngine returns the SE engine behind s — the one engine that supports
// warm-start amendment (internal/live) — or false.
func warmEngine(s Search) (*core.Engine, bool) {
	sr, ok := s.(*search)
	if !ok {
		return nil, false
	}
	e, ok := sr.st.(*core.Engine)
	return e, ok
}

// CurrentSolution returns a copy of the search's working solution when its
// engine supports warm-start amendment, and false otherwise.
func CurrentSolution(s Search) (schedule.String, bool) {
	e, ok := warmEngine(s)
	if !ok {
		return nil, false
	}
	return e.Current(), true
}

// CanRebase reports whether Rebase would accept s: the search came from
// this registry and runs the SE engine.
func CanRebase(s Search) bool {
	_, ok := warmEngine(s)
	return ok
}

// Rebase transplants a live search onto an amended (graph, system) pair —
// the warm-start seam of the online scheduling mode. cur and best are the
// search's old solutions spliced for the amended workload (new tasks
// inserted, vanished machines reassigned; see internal/live). The returned
// Search keeps the old one's registry name and observer tap, and its
// engine continues with the same rng stream position and effort ledger, so
// a replayed event trace is bit-identical run to run. Only SE searches
// (se, se-ils, se-live) support it; population and region-partitioned
// engines and constructive heuristics are rejected with an error.
func Rebase(s Search, g *taskgraph.Graph, sys *platform.System, cur, best schedule.String) (Search, error) {
	sr, ok := s.(*search)
	if !ok {
		return nil, fmt.Errorf("scheduler: rebase: not a registry search (%T)", s)
	}
	e, ok := sr.st.(*core.Engine)
	if !ok {
		return nil, fmt.Errorf("scheduler: rebase: algorithm %q does not support warm-start amendment", sr.name)
	}
	ne, err := e.Rebase(g, sys, cur, best)
	if err != nil {
		return nil, err
	}
	return &search{name: sr.name, g: g, sys: sys, st: ne, observe: sr.observe}, nil
}
