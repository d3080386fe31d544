package sa

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/snap"
	"repro/internal/taskgraph"
	"repro/internal/xrand"
)

// Snapshot format: magic + version gate the layout; bump on field changes.
const (
	engineSnapMagic = "SAEN"
	// engineSnapVersion 2 added the effort ledger, so restored walks
	// report cumulative evaluation counts; 3 dropped the
	// evaluator-selection flag; 4 dropped the cooling factor and
	// moves-per-block count, which are fixed.
	engineSnapVersion = 4
)

// Snapshot encodes the walk's complete state — rng stream position,
// current and best solutions, temperature and counters — as a
// versioned, deterministic byte string. A restored engine continues
// bit-identically. The current makespan travels as IEEE-754 bits so
// Metropolis deltas after a restore are computed against exactly the
// value the uninterrupted walk would have used.
func (e *Engine) Snapshot() ([]byte, error) {
	w := snap.Borrow(engineSnapMagic, engineSnapVersion)
	e.src.AppendSnap(w)
	schedule.AppendSnap(w, e.cur)
	schedule.AppendSnap(w, e.best)
	w.F64(e.curMs)
	w.F64(e.bestMs)
	w.F64(e.temp)
	w.Int(e.moves)
	w.Int(e.accepted)
	w.Int(e.blocks)
	w.Int(e.sinceImproved)
	w.I64(int64(e.elapsed))
	e.counts().AppendSnap(w)
	return w.Detach(), nil
}

// RestoreEngine rebuilds an Engine from a Snapshot against the same
// (graph, system) pair. The incremental evaluator is re-pinned on the
// restored current solution — its checkpoints are a pure function of it.
func RestoreEngine(data []byte, g *taskgraph.Graph, sys *platform.System) (*Engine, error) {
	r, err := snap.NewReader(data, engineSnapMagic, engineSnapVersion)
	if err != nil {
		return nil, fmt.Errorf("sa: restore: %w", err)
	}
	src := xrand.ReadSnap(r)
	cur := schedule.ReadSnap(r)
	best := schedule.ReadSnap(r)
	curMs := r.F64()
	bestMs := r.F64()
	temp := r.F64()
	moves := r.Int()
	accepted := r.Int()
	blocks := r.Int()
	sinceImproved := r.Int()
	elapsed := time.Duration(r.I64())
	base := schedule.ReadEvalCounts(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("sa: restore: %w", err)
	}
	if moves < 0 || accepted < 0 || blocks < 0 || sinceImproved < 0 || elapsed < 0 {
		return nil, fmt.Errorf("sa: restore: negative counters")
	}
	if temp <= 0 {
		return nil, fmt.Errorf("sa: restore: temperature %v, want > 0", temp)
	}
	if err := schedule.Validate(cur, g, sys); err != nil {
		return nil, fmt.Errorf("sa: restore: current solution: %w", err)
	}
	if err := schedule.Validate(best, g, sys); err != nil {
		return nil, fmt.Errorf("sa: restore: best solution: %w", err)
	}
	e, err := newShell(g, sys, src)
	if err != nil {
		return nil, fmt.Errorf("sa: restore: %w", err)
	}
	e.cur = cur
	e.best = best
	e.curMs = curMs
	e.bestMs = bestMs
	e.temp = temp
	e.moves = moves
	e.accepted = accepted
	e.blocks = blocks
	e.sinceImproved = sinceImproved
	e.elapsed = elapsed
	e.inc.Pin(e.cur)
	// The snapshotted walk already accounted its own construction pin in
	// base; cancel the restore-time re-pin so the ledger continues exactly
	// where the uninterrupted walk's would be.
	e.base = base.Sub(e.inc.Counts())
	e.cur.Positions(e.pos)
	return e, nil
}
