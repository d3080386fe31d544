package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// Current returns a copy of the engine's current (working) solution — the
// string the next generation's evaluation will score. The online
// amendment path (internal/live) reads it to splice newly arrived tasks
// into the live search state before a Rebase.
func (e *Engine) Current() schedule.String { return e.cur.Clone() }

// Rebase rebuilds this engine against an amended problem — the warm-start
// seam of the online scheduling mode (internal/live). The new engine keeps
// everything that makes the search "the same search": the rng stream stays
// at its exact draw position (so two replays of the same event trace stay
// bit-identical), the iteration counter, accumulated wall clock and the
// evaluation-effort ledger all carry over, and the caller-supplied cur and
// best strings — the old solutions spliced for the amended workload —
// become the new search state. What does NOT carry over is the stagnation
// state: the problem just changed, so sinceImproved resets and any pending
// perturbation kick is dropped (kicking a freshly amended solution would
// throw away the warm start being preserved).
//
// best's makespan is recomputed on the amended workload with an uncounted
// evaluator: amendment is bookkeeping, not search effort, so the ledger
// advances only through Steps — exactly like Snapshot/Restore.
//
// The receiver remains usable but the caller is expected to step only the
// returned engine; the two share no state.
func (e *Engine) Rebase(g *taskgraph.Graph, sys *platform.System, cur, best schedule.String) (*Engine, error) {
	opts := e.opts
	opts.Initial = nil
	if err := schedule.Validate(cur, g, sys); err != nil {
		return nil, fmt.Errorf("core: rebase: current solution: %w", err)
	}
	if err := schedule.Validate(best, g, sys); err != nil {
		return nil, fmt.Errorf("core: rebase: best solution: %w", err)
	}
	ne, err := newShell(g, sys, opts, e.src.Copy())
	if err != nil {
		return nil, fmt.Errorf("core: rebase: %w", err)
	}
	ne.cur = cur.Clone()
	ne.best = best.Clone()
	ne.bestMs = schedule.NewEvaluator(g, sys).Makespan(ne.best)
	ne.iter = e.iter
	ne.sinceImproved = 0
	ne.pendingKick = false
	ne.elapsed = e.elapsed
	ne.base = e.Counts()
	return ne, nil
}
