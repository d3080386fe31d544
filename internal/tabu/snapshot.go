package tabu

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
	engineSnapMagic = "TBEN"
	// engineSnapVersion 2 added the effort ledger, so restored searches
	// report cumulative evaluation counts; 3 dropped the
	// evaluator-selection flag; 4 dropped the tenure and neighbourhood
	// size, which are fixed by the task count.
	engineSnapVersion = 4
)

// Snapshot encodes the search's complete state — rng stream position,
// current and best solutions, the tabu list and counters — as a
// versioned, deterministic byte string. A restored engine continues
// bit-identically: tabuUntil entries are absolute iteration indices, so
// they carry over unchanged with the iteration counter.
func (e *Engine) Snapshot() ([]byte, error) {
	w := snap.Borrow(engineSnapMagic, engineSnapVersion)
	e.src.AppendSnap(w)
	schedule.AppendSnap(w, e.cur)
	schedule.AppendSnap(w, e.best)
	w.F64(e.curMs)
	w.F64(e.bestMs)
	w.Ints(e.tabuUntil)
	w.Int(e.iter)
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
		return nil, fmt.Errorf("tabu: restore: %w", err)
	}
	src := xrand.ReadSnap(r)
	cur := schedule.ReadSnap(r)
	best := schedule.ReadSnap(r)
	curMs := r.F64()
	bestMs := r.F64()
	tabuUntil := r.Ints()
	iter := r.Int()
	sinceImproved := r.Int()
	elapsed := time.Duration(r.I64())
	base := schedule.ReadEvalCounts(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tabu: restore: %w", err)
	}
	if iter < 0 || sinceImproved < 0 || elapsed < 0 {
		return nil, fmt.Errorf("tabu: restore: negative counters")
	}
	if len(tabuUntil) != g.NumTasks() {
		return nil, fmt.Errorf("tabu: restore: tabu list has %d entries for a %d-task graph", len(tabuUntil), g.NumTasks())
	}
	if err := schedule.Validate(cur, g, sys); err != nil {
		return nil, fmt.Errorf("tabu: restore: current solution: %w", err)
	}
	if err := schedule.Validate(best, g, sys); err != nil {
		return nil, fmt.Errorf("tabu: restore: best solution: %w", err)
	}
	e, err := newShell(g, sys, src)
	if err != nil {
		return nil, fmt.Errorf("tabu: restore: %w", err)
	}
	e.cur = cur
	e.best = best
	e.curMs = curMs
	e.bestMs = bestMs
	e.tabuUntil = tabuUntil
	e.iter = iter
	e.sinceImproved = sinceImproved
	e.elapsed = elapsed
	e.inc.Pin(e.cur)
	// The snapshotted search already accounted its own construction pin
	// in base; cancel the restore-time re-pin so the ledger continues
	// exactly where the uninterrupted search's would be.
	e.base = base.Sub(e.inc.Counts())
	e.cur.Positions(e.pos)
	return e, nil
}
