package core

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/snap"
	"repro/internal/taskgraph"
	"repro/internal/xrand"
)

// Snapshot format: magic + version gate the layout; bump engineSnapVersion
// on any field change.
const (
	engineSnapMagic = "SEEN"
	// engineSnapVersion 3 dropped the evaluator-selection flag.
	engineSnapVersion = 3
)

// Snapshot encodes the engine's complete search state — options, rng
// stream position, current and best solutions, counters, effort ledger
// and pending perturbation — as a versioned, deterministic byte string.
// An engine restored from it continues bit-identically to this one,
// effort ledger included: a restored run's Counts pick up exactly where
// the snapshotted run's left off, so distributed re-dispatch preserves
// the ledger. The evaluators' checkpoints are not encoded: they are a
// pure function of the current solution and are rebuilt (re-pinned) on
// the first post-restore allocation.
func (e *Engine) Snapshot() ([]byte, error) {
	w := snap.Borrow(engineSnapMagic, engineSnapVersion)
	w.F64(e.opts.Bias)
	w.Int(e.opts.Y)
	w.Int(e.opts.PerturbAfter)
	w.Int(e.opts.Workers)
	e.src.AppendSnap(w)
	schedule.AppendSnap(w, e.cur)
	schedule.AppendSnap(w, e.best)
	w.F64(e.bestMs)
	w.Int(e.iter)
	w.Int(e.sinceImproved)
	w.Bool(e.pendingKick)
	w.I64(int64(e.elapsed))
	e.Counts().AppendSnap(w)
	return w.Detach(), nil
}

// RestoreEngine rebuilds an Engine from a Snapshot against the same
// (graph, system) pair the snapshot was taken on. Mismatched workloads,
// truncated or corrupted bytes surface as errors, never panics.
func RestoreEngine(data []byte, g *taskgraph.Graph, sys *platform.System) (*Engine, error) {
	r, err := snap.NewReader(data, engineSnapMagic, engineSnapVersion)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	var opts Options
	opts.Bias = r.F64()
	opts.Y = r.Int()
	opts.PerturbAfter = r.Int()
	opts.Workers = r.Int()
	src := xrand.ReadSnap(r)
	cur := schedule.ReadSnap(r)
	best := schedule.ReadSnap(r)
	bestMs := r.F64()
	iter := r.Int()
	sinceImproved := r.Int()
	pendingKick := r.Bool()
	elapsed := time.Duration(r.I64())
	base := schedule.ReadEvalCounts(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if iter < 0 || sinceImproved < 0 || elapsed < 0 {
		return nil, fmt.Errorf("core: restore: negative counters (iter %d, sinceImproved %d, elapsed %v)", iter, sinceImproved, elapsed)
	}
	if err := schedule.Validate(cur, g, sys); err != nil {
		return nil, fmt.Errorf("core: restore: current solution: %w", err)
	}
	if err := schedule.Validate(best, g, sys); err != nil {
		return nil, fmt.Errorf("core: restore: best solution: %w", err)
	}
	e, err := newShell(g, sys, opts, src)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	e.cur = cur
	e.best = best
	e.bestMs = bestMs
	e.iter = iter
	e.sinceImproved = sinceImproved
	e.pendingKick = pendingKick
	e.elapsed = elapsed
	e.base = base
	return e, nil
}
