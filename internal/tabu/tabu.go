// Package tabu implements tabu search over the MSHC solution space — the
// third classic iterative heuristic (besides SE and SA) from Sait &
// Youssef's "Iterative Computer Algorithms with Applications in
// Engineering", the paper's companion reference [10]. It is an extension
// beyond the paper, completing the family of comparators that share the
// encoding, move space and evaluator.
//
// Each iteration samples a neighbourhood of candidate moves (one task to
// one valid position on one machine), applies the best move whose task is
// not tabu — unless it beats the global best (aspiration) — and marks the
// moved task tabu for Tenure iterations.
package tabu

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/xrand"
)

// Options configures one tabu search. The caller's Step loop (or
// scheduler.Drive) bounds it.
type Options struct {
	// Tenure is how many iterations a moved task stays tabu
	// (default: task count / 4, at least 2).
	Tenure int
	// Neighborhood is the number of candidate moves sampled per iteration
	// (default: the task count).
	Neighborhood int
	// Seed drives all randomness.
	Seed int64
	// Initial, when non-nil, is the starting solution (cloned).
	Initial schedule.String
	// FullEval disables the incremental evaluation engine and scores every
	// sampled neighbour with a full pass. The search is byte-identical
	// either way; this exists for ablations and differential tests.
	FullEval bool
}

// Engine is one tabu search in progress, steppable one iteration at a
// time and snapshottable between iterations; it implements
// scheduler.Stepper directly. Engines are not safe for concurrent use.
type Engine struct {
	g    *taskgraph.Graph
	sys  *platform.System
	opts Options
	rng  *rand.Rand
	src  *xrand.Source
	eval *schedule.Evaluator
	inc  *schedule.DeltaEvaluator // incremental engine; nil under FullEval

	cur    schedule.String
	curMs  float64
	best   schedule.String
	bestMs float64

	tabuUntil     []int // task → first iteration it may move again
	iter          int
	sinceImproved int
	elapsed       time.Duration

	// base carries the effort ledger accumulated before a snapshot/restore
	// cut, so a restored search's counts continue instead of resetting.
	base schedule.EvalCounts

	cand    schedule.String
	applied schedule.String
	pos     []int
}

// NewEngine validates opts and builds a ready-to-Step engine.
func NewEngine(g *taskgraph.Graph, sys *platform.System, opts Options) (*Engine, error) {
	e, err := newShell(g, sys, opts)
	if err != nil {
		return nil, err
	}
	n := g.NumTasks()
	if opts.Initial != nil {
		if err := schedule.Validate(opts.Initial, g, sys); err != nil {
			return nil, fmt.Errorf("tabu: Options.Initial: %w", err)
		}
		e.cur = opts.Initial.Clone()
	} else {
		assign := make([]taskgraph.MachineID, n)
		for t := range assign {
			assign[t] = taskgraph.MachineID(e.rng.Intn(sys.NumMachines()))
		}
		e.cur = schedule.FromOrder(g.RandomTopoOrder(e.rng), assign)
	}
	if e.inc != nil {
		e.curMs, _ = e.inc.Pin(e.cur)
	} else {
		e.curMs = e.eval.Makespan(e.cur)
	}
	e.best = e.cur.Clone()
	e.bestMs = e.curMs
	e.cur.Positions(e.pos)
	return e, nil
}

// newShell builds an engine with everything but the search state — the
// shared half of NewEngine and the snapshot Restore path.
func newShell(g *taskgraph.Graph, sys *platform.System, opts Options) (*Engine, error) {
	if g.NumTasks() != sys.NumTasks() {
		return nil, fmt.Errorf("tabu: graph has %d tasks but system is sized for %d", g.NumTasks(), sys.NumTasks())
	}
	n := g.NumTasks()
	if opts.Tenure <= 0 {
		opts.Tenure = n / 4
		if opts.Tenure < 2 {
			opts.Tenure = 2
		}
	}
	if opts.Neighborhood <= 0 {
		opts.Neighborhood = n
	}
	rng, src := xrand.New(opts.Seed)
	e := &Engine{
		g:         g,
		sys:       sys,
		opts:      opts,
		rng:       rng,
		src:       src,
		eval:      schedule.NewEvaluator(g, sys),
		tabuUntil: make([]int, n),
		cand:      make(schedule.String, n),
		applied:   make(schedule.String, n),
		pos:       make([]int, n),
	}
	if !opts.FullEval {
		e.inc = schedule.NewDeltaEvaluator(g, sys)
	}
	return e, nil
}

// Stalled reports whether the last noImprove iterations all failed to
// improve the best makespan — the Budget.NoImprovement test.
func (e *Engine) Stalled(noImprove int) bool { return e.sinceImproved >= noImprove }

// Done reports false: tabu search has no intrinsic exhaustion point.
func (e *Engine) Done() bool { return false }

// Step runs one tabu iteration — sample the neighbourhood, apply the best
// admissible move, update the tabu list — and returns the iteration's
// observation.
func (e *Engine) Step() schedule.Progress {
	start := time.Now()
	n := e.g.NumTasks()
	iter := e.iter

	// Sample the neighbourhood; keep the best admissible move.
	bestMove := -1.0
	moved := taskgraph.TaskID(-1)
	var movedIdx, movedQ int
	var movedM taskgraph.MachineID
	for i := 0; i < e.opts.Neighborhood; i++ {
		idx := e.rng.Intn(n)
		t := e.cur[idx].Task
		lo, hi := schedule.ValidRange(e.g, e.cur, e.pos, idx)
		q := lo + e.rng.Intn(hi-lo+1)
		m := taskgraph.MachineID(e.rng.Intn(e.sys.NumMachines()))
		var ms float64
		if e.inc != nil {
			// A candidate only matters when it beats the iteration's
			// best admissible move so far — and, for a tabu task, only
			// when it also beats the global best (aspiration). Both
			// tests are strict, so a replay aborted above the tighter
			// of the two bounds is a candidate the full path would
			// have discarded anyway.
			bound := schedule.NoBound
			if bestMove >= 0 {
				bound = bestMove
			}
			if e.tabuUntil[t] > iter && e.bestMs < bound {
				bound = e.bestMs
			}
			var ok bool
			ms, _, ok = e.inc.MoveMakespan(idx, q, m, bound, schedule.NoBound)
			if !ok {
				continue
			}
		} else {
			schedule.MoveInto(e.cand, e.cur, idx, q, m)
			ms = e.eval.Makespan(e.cand)
		}

		admissible := e.tabuUntil[t] <= iter || ms < e.bestMs // aspiration
		if !admissible {
			continue
		}
		if bestMove < 0 || ms < bestMove {
			bestMove = ms
			moved = t
			movedIdx, movedQ, movedM = idx, q, m
			if e.inc == nil {
				copy(e.applied, e.cand)
			}
		}
	}
	if moved >= 0 {
		if e.inc != nil {
			// The winner is materialized once, here, rather than on
			// every improvement during sampling; a second replay of it
			// refreshes the scratch so the rebase is pure bookkeeping.
			schedule.MoveInto(e.applied, e.cur, movedIdx, movedQ, movedM)
			e.inc.MoveMakespan(movedIdx, movedQ, movedM, schedule.NoBound, schedule.NoBound)
			e.inc.CommitMove(movedIdx, movedQ, movedM)
		}
		copy(e.cur, e.applied)
		schedule.UpdatePositions(e.pos, e.cur, movedIdx, movedQ)
		e.curMs = bestMove
		e.tabuUntil[moved] = iter + 1 + e.opts.Tenure
		if e.curMs < e.bestMs {
			e.bestMs = e.curMs
			copy(e.best, e.cur)
			e.sinceImproved = 0
		} else {
			e.sinceImproved++
		}
	} else {
		e.sinceImproved++
	}

	e.iter++
	stats := schedule.Progress{
		Iteration: iter,
		Current:   e.curMs,
		Best:      e.bestMs,
		Elapsed:   e.elapsed + time.Since(start),
	}
	e.elapsed += time.Since(start)
	return stats
}

// Result finalizes the engine's state into a Result. The engine remains
// steppable afterwards.
func (e *Engine) Result() *schedule.Result {
	return schedule.NewResult(e.best.Clone(), e.bestMs, e.iter, e.counts(), e.elapsed)
}

// counts sums the search's effort ledger: live evaluator counters on top
// of the pre-restore base.
func (e *Engine) counts() schedule.EvalCounts {
	counts := e.base.Add(e.eval.Counts())
	if e.inc != nil {
		counts = counts.Add(e.inc.Counts())
	}
	return counts
}
