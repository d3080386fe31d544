// Package sa implements a simulated-annealing scheduler over the same
// solution space as SE — an extension beyond the paper (its authors'
// companion book covers SA among the iterative heuristics SE is related
// to). It serves as an ablation: SA uses the identical move space
// (valid-range position moves plus machine reassignment) but replaces SE's
// goodness-guided selection and constructive allocation with random moves
// and Metropolis acceptance, isolating the value of SE's guidance.
package sa

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/xrand"
)

// Options configures one SA walk. The caller's Step loop (or
// scheduler.Drive) bounds it.
type Options struct {
	// InitialTemp is the starting temperature; 0 derives it from the
	// initial solution (20% of its makespan), which accepts most early
	// uphill moves.
	InitialTemp float64
	// Cooling is the geometric cooling factor applied once per block of
	// MovesPerTemp moves (default 0.98).
	Cooling float64
	// MovesPerTemp is the number of proposed moves per temperature step
	// (default: the task count).
	MovesPerTemp int
	// Seed drives all randomness.
	Seed int64
	// Initial, when non-nil, is the starting solution (cloned); otherwise
	// a random valid solution is generated.
	Initial schedule.String
	// FullEval disables the incremental evaluation engine and scores every
	// proposed move with a full pass. The walk is byte-identical either
	// way; this exists for ablations and differential tests.
	FullEval bool
}

// Engine is one SA walk in progress, steppable one temperature block at a
// time and snapshottable between blocks; it implements scheduler.Stepper
// directly. Engines are not safe for concurrent use.
type Engine struct {
	g    *taskgraph.Graph
	sys  *platform.System
	opts Options
	rng  *rand.Rand
	src  *xrand.Source
	eval *schedule.Evaluator
	inc  *schedule.DeltaEvaluator // incremental engine; nil under FullEval

	cur   schedule.String
	curMs float64
	best  schedule.String
	// bestMs tracks best's schedule length; temp is the current
	// temperature (cooled once per completed block).
	bestMs float64
	temp   float64

	moves         int
	accepted      int
	blocks        int
	sinceImproved int
	elapsed       time.Duration

	// base carries the effort ledger accumulated before a snapshot/restore
	// cut, so a restored walk's Counts continue instead of resetting.
	base schedule.EvalCounts

	cand schedule.String
	pos  []int
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
			return nil, fmt.Errorf("sa: Options.Initial: %w", err)
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
	e.temp = e.opts.InitialTemp
	if e.temp <= 0 {
		e.temp = 0.2 * e.curMs
	}
	e.cur.Positions(e.pos)
	return e, nil
}

// newShell builds an engine with everything but the walk state — the
// shared half of NewEngine and the snapshot Restore path.
func newShell(g *taskgraph.Graph, sys *platform.System, opts Options) (*Engine, error) {
	if g.NumTasks() != sys.NumTasks() {
		return nil, fmt.Errorf("sa: graph has %d tasks but system is sized for %d", g.NumTasks(), sys.NumTasks())
	}
	if opts.Cooling == 0 {
		opts.Cooling = 0.98
	}
	if opts.Cooling <= 0 || opts.Cooling >= 1 {
		return nil, fmt.Errorf("sa: Cooling = %v, want in (0,1)", opts.Cooling)
	}
	if opts.MovesPerTemp <= 0 {
		opts.MovesPerTemp = g.NumTasks()
	}
	rng, src := xrand.New(opts.Seed)
	e := &Engine{
		g:    g,
		sys:  sys,
		opts: opts,
		rng:  rng,
		src:  src,
		eval: schedule.NewEvaluator(g, sys),
		cand: make(schedule.String, g.NumTasks()),
		pos:  make([]int, g.NumTasks()),
	}
	if !opts.FullEval {
		e.inc = schedule.NewDeltaEvaluator(g, sys)
	}
	return e, nil
}

// Moves returns the number of proposed moves so far.
func (e *Engine) Moves() int { return e.moves }

// Accepted returns the number of accepted moves so far.
func (e *Engine) Accepted() int { return e.accepted }

// Stalled converts from Budget iterations (temperature blocks) to SA's
// native stagnation unit: it reports whether the last noImprove×MovesPerTemp
// proposed moves all failed to improve the best makespan.
func (e *Engine) Stalled(noImprove int) bool {
	return e.sinceImproved >= noImprove*e.opts.MovesPerTemp
}

// Done reports false: the walk has no intrinsic exhaustion point.
func (e *Engine) Done() bool { return false }

// Step runs one temperature block of MovesPerTemp Metropolis moves, cools
// the temperature, and returns the block's observation.
func (e *Engine) Step() schedule.Progress {
	start := time.Now()
	n := e.g.NumTasks()
	for i := 0; i < e.opts.MovesPerTemp; i++ {
		// Propose: random task to a random valid position on a random
		// machine.
		idx := e.rng.Intn(n)
		lo, hi := schedule.ValidRange(e.g, e.cur, e.pos, idx)
		q := lo + e.rng.Intn(hi-lo+1)
		m := taskgraph.MachineID(e.rng.Intn(e.sys.NumMachines()))
		var ms float64
		if e.inc != nil {
			// Metropolis needs the exact makespan even uphill, so the
			// replay runs unbounded; the rejected-move common case
			// costs only the suffix, with no string materialized.
			ms, _, _ = e.inc.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
		} else {
			schedule.MoveInto(e.cand, e.cur, idx, q, m)
			ms = e.eval.Makespan(e.cand)
		}
		e.moves++

		delta := ms - e.curMs
		if delta <= 0 || e.rng.Float64() < math.Exp(-delta/e.temp) {
			if e.inc != nil {
				// The replay scratch already holds the accepted
				// string's state; rebasing is bookkeeping, not a
				// re-evaluation.
				schedule.MoveInto(e.cand, e.cur, idx, q, m)
				e.inc.CommitMove(idx, q, m)
			}
			copy(e.cur, e.cand)
			schedule.UpdatePositions(e.pos, e.cur, idx, q)
			e.curMs = ms
			e.accepted++
			if e.curMs < e.bestMs {
				e.bestMs = e.curMs
				copy(e.best, e.cur)
				e.sinceImproved = 0
				continue
			}
		}
		e.sinceImproved++
	}
	stats := schedule.Progress{
		Iteration: e.blocks,
		Current:   e.curMs,
		Best:      e.bestMs,
		Elapsed:   e.elapsed + time.Since(start),
	}
	e.blocks++
	e.temp *= e.opts.Cooling
	e.elapsed += time.Since(start)
	return stats
}

// Result finalizes the engine's state into a Result; Iterations counts
// completed temperature blocks. The engine remains steppable afterwards.
func (e *Engine) Result() *schedule.Result {
	return schedule.NewResult(e.best.Clone(), e.bestMs, e.blocks, e.counts(), e.elapsed)
}

// counts sums the walk's effort ledger: live evaluator counters on top of
// the pre-restore base.
func (e *Engine) counts() schedule.EvalCounts {
	counts := e.base.Add(e.eval.Counts())
	if e.inc != nil {
		counts = counts.Add(e.inc.Counts())
	}
	return counts
}
