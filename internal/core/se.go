package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/xrand"
)

// Engine is one SE search in progress: the paper's
// evaluation–selection–allocation loop with its state held between
// generations, so a caller can drive it one Step at a time, read the best
// solution mid-run, and Snapshot/Restore it across process boundaries. It
// implements scheduler.Stepper directly. Engines are not safe for
// concurrent use.
type Engine struct {
	g     *taskgraph.Graph
	sys   *platform.System
	opts  Options
	rng   *rand.Rand
	src   *xrand.Source // rng's counting source, for snapshots
	eval  *schedule.Evaluator
	delta *schedule.DeltaEvaluator // serial allocation's evaluator; nil with a pool
	// probe answers observation-only makespan queries (Result's closing
	// evaluation) off the counted evaluators, so inspecting a search
	// mid-run leaves the effort ledger exactly as untouched as the search
	// state itself. Lazily built on first use.
	probe *schedule.Evaluator
	// base is the effort ledger carried over a snapshot/restore cycle;
	// Counts adds it to the live evaluators' counters.
	base schedule.EvalCounts

	opt        []float64          // Oᵢ, fixed across generations
	finish     []float64          // Cᵢ of the current solution
	goodness   []float64          // gᵢ = clamp(Oᵢ/Cᵢ)
	levels     []int              // DAG levels, for selection-set ordering
	levelOrder []taskgraph.TaskID // all tasks pre-sorted by (level, id)
	selMask    []bool             // selection membership scratch
	pos        []int              // task → index scratch

	cur      schedule.String
	moveBuf  schedule.String // scratch for applying the winning move
	selected []taskgraph.TaskID

	best          schedule.String
	bestMs        float64
	iter          int
	sinceImproved int
	// pendingKick defers a stagnation perturbation to the start of the
	// next Step, exactly where the pre-resumable loop applied it (after
	// the stopping checks), so a run stopped at the stagnant generation
	// never pays the kick.
	pendingKick bool
	mover       *schedule.Mover // lazily created for PerturbAfter kicks
	elapsed     time.Duration   // accumulated Step time, survives snapshots

	pool *allocPool // nil when running serially
}

// NewEngine validates opts and builds a ready-to-Step engine positioned
// before its first generation. The caller's Step loop bounds the search.
func NewEngine(g *taskgraph.Graph, sys *platform.System, opts Options) (*Engine, error) {
	e, err := newShell(g, sys, opts, xrand.NewSource(opts.Seed))
	if err != nil {
		return nil, err
	}
	if opts.Initial != nil {
		if err := schedule.Validate(opts.Initial, g, sys); err != nil {
			return nil, fmt.Errorf("core: Options.Initial: %w", err)
		}
		e.cur = opts.Initial.Clone()
	} else {
		e.cur = e.initialSolution()
	}
	e.best = e.cur.Clone()
	e.bestMs = e.eval.Makespan(e.best)
	return e, nil
}

// newShell builds an engine drawing from src with everything but the
// search state (current and best solutions, counters): the shared half of
// NewEngine and the snapshot Restore path.
func newShell(g *taskgraph.Graph, sys *platform.System, opts Options, src *xrand.Source) (*Engine, error) {
	if g.NumTasks() != sys.NumTasks() {
		return nil, fmt.Errorf("core: graph has %d tasks but system is sized for %d", g.NumTasks(), sys.NumTasks())
	}
	if g.NumItems() != sys.NumItems() {
		return nil, fmt.Errorf("core: graph has %d items but system is sized for %d", g.NumItems(), sys.NumItems())
	}
	if opts.Y < 0 {
		return nil, fmt.Errorf("core: Y = %d, want >= 0", opts.Y)
	}
	n := g.NumTasks()
	e := &Engine{
		g:        g,
		sys:      sys,
		opts:     opts,
		rng:      src.Rand(),
		src:      src,
		eval:     schedule.NewEvaluator(g, sys),
		opt:      OptimalFinishTimes(g, sys),
		finish:   make([]float64, n),
		goodness: make([]float64, n),
		levels:   g.Levels(),
		selMask:  make([]bool, n),
		pos:      make([]int, n),
		moveBuf:  make(schedule.String, n),
		selected: make([]taskgraph.TaskID, 0, n),
	}
	// The selection set is always read in (level, id) order; precomputing
	// that order once lets selectTasks run sort-free every generation. A
	// stable sort by level over ID-ascending input yields exactly the
	// (level, id) lexicographic order the per-Step sort produced.
	e.levelOrder = make([]taskgraph.TaskID, n)
	for t := range e.levelOrder {
		e.levelOrder[t] = taskgraph.TaskID(t)
	}
	sort.SliceStable(e.levelOrder, func(i, j int) bool {
		return e.levels[e.levelOrder[i]] < e.levels[e.levelOrder[j]]
	})
	if opts.Workers > 1 {
		e.pool = newAllocPool(g, sys, opts.Workers)
	} else {
		// The pool's workers own their evaluators; the serial one exists
		// only on the serial path.
		e.delta = schedule.NewDeltaEvaluator(g, sys)
	}
	return e, nil
}

// initialSolution implements §4.2: random machine per task, tasks laid out
// in (deterministic) topological order, then a random number of random
// position moves within valid ranges. The perturbation moves positions
// only — machines stay as initially drawn — matching the paper's wording.
func (e *Engine) initialSolution() schedule.String {
	n := e.g.NumTasks()
	assign := make([]taskgraph.MachineID, n)
	for t := range assign {
		assign[t] = taskgraph.MachineID(e.rng.Intn(e.sys.NumMachines()))
	}
	s := schedule.FromOrder(e.g.TopoOrder(), assign)

	moves := e.opts.InitialMoves
	switch {
	case moves == NoInitialMoves:
		moves = 0
	case moves == 0:
		moves = e.rng.Intn(2*n + 1)
	}
	mv := schedule.NewMover(e.g)
	for i := 0; i < moves; i++ {
		idx := e.rng.Intn(n)
		lo, hi := mv.ValidRangeOf(s, idx)
		q := lo + e.rng.Intn(hi-lo+1)
		mv.Apply(s, idx, q, s[idx].Machine)
	}
	return s
}

// Step runs one SE generation — evaluation (§4.3), selection (§4.4) and
// allocation (§4.5), plus any perturbation kick left pending by the
// previous generation — and returns the generation's observation,
// captured after selection, before allocation: Current is the makespan of
// the solution the generation evaluated.
func (e *Engine) Step() schedule.Progress {
	stepStart := time.Now()
	if e.pendingKick {
		// Iterated-local-search kick (extension, see Options): shuffle
		// the stagnated solution and let the next generations descend
		// into a new basin. The best solution is already kept aside.
		if e.mover == nil {
			e.mover = schedule.NewMover(e.g)
		}
		e.mover.Shuffle(e.rng, e.cur, e.sys.NumMachines(), e.g.NumTasks())
		e.pendingKick = false
	}

	// Evaluation (§4.3): finish times of the current solution give Cᵢ.
	curMs := e.eval.FinishInto(e.cur, e.finish)
	if curMs < e.bestMs {
		e.bestMs = curMs
		copy(e.best, e.cur)
		e.sinceImproved = 0
	} else {
		e.sinceImproved++
	}
	Goodness(e.goodness, e.opt, e.finish)

	// Selection (§4.4).
	e.selectTasks()

	stats := schedule.Progress{
		Iteration: e.iter,
		Current:   curMs,
		Best:      e.bestMs,
		Selected:  len(e.selected),
		Elapsed:   e.elapsed + time.Since(stepStart),
	}

	// Allocation (§4.5).
	e.allocate()

	e.iter++
	if e.opts.PerturbAfter > 0 && e.sinceImproved > 0 && e.sinceImproved%e.opts.PerturbAfter == 0 {
		e.pendingKick = true
	}
	e.elapsed += time.Since(stepStart)
	return stats
}

// Stalled reports whether the last noImprove generations all failed to
// improve the best makespan — the Budget.NoImprovement test.
func (e *Engine) Stalled(noImprove int) bool { return e.sinceImproved >= noImprove }

// Done reports false: SE has no intrinsic exhaustion point.
func (e *Engine) Done() bool { return false }

// Result finalizes the engine's state into a Result. The final
// generation's allocation may have improved on the last recorded best, so
// the current solution is evaluated once more — exactly the closing step
// of the pre-resumable run loop. The comparison is kept off the engine's
// own best-so-far state, and the closing evaluation runs on an uncounted
// probe evaluator: a mid-run Result call must not suppress the
// improvement bookkeeping (sinceImproved resets) a later generation would
// perform, nor inflate the effort ledger, or a search inspected mid-run
// would diverge from an uninspected one. The engine remains steppable
// afterwards.
func (e *Engine) Result() *schedule.Result {
	best, bestMs := e.best, e.bestMs
	if e.probe == nil {
		e.probe = schedule.NewEvaluator(e.g, e.sys)
	}
	if finalMs := e.probe.Makespan(e.cur); finalMs < bestMs {
		best, bestMs = e.cur, finalMs
	}
	return schedule.NewResult(best.Clone(), bestMs, e.iter, e.Counts(), e.elapsed)
}

// Counts returns the engine's evaluation-effort ledger summed over the
// serial evaluators, any worker pool, and the ledger restored from a
// snapshot (the ledger survives snapshot/restore, like every other
// counter).
func (e *Engine) Counts() schedule.EvalCounts {
	counts := e.base.Add(e.eval.Counts())
	if e.delta != nil {
		counts = counts.Add(e.delta.Counts())
	}
	if e.pool != nil {
		counts = counts.Add(e.pool.counts())
	}
	return counts
}

// selectTasks fills e.selected with the selection set S: task sᵢ is selected
// when a uniform draw in [0,1) is greater than gᵢ + B. The set is then
// ordered by ascending DAG level (ties by task ID), the order in which
// allocation will reconsider the tasks.
func (e *Engine) selectTasks() {
	// The rng draws stay in task-ID order — the stream position is part of
	// the bit-identity contract — while the selection set is gathered by
	// walking the precomputed (level, id) task order, replacing the
	// per-generation stable sort the selection historically paid for.
	e.selected = e.selected[:0]
	remaining := 0
	for t := 0; t < e.g.NumTasks(); t++ {
		if e.rng.Float64() > e.goodness[t]+e.opts.Bias {
			e.selMask[t] = true
			remaining++
		}
	}
	for _, t := range e.levelOrder {
		if remaining == 0 {
			break
		}
		if e.selMask[t] {
			e.selMask[t] = false
			e.selected = append(e.selected, t)
			remaining--
		}
	}
}

// allocate constructively re-places every selected task: all insertion
// positions in the task's valid range are combined with each of its Y
// best-matching machines; the combination with the smallest overall
// schedule length is applied before moving on to the next selected task.
// The scan (schedule.DeltaEvaluator.Scan) ranks candidates by the key
// (makespan, total finish time, q, machine rank): candidates off the
// critical path tie on makespan, and the total keeps such moves
// compacting the schedule instead of parking at the first tie.
//
// e.pos is rebuilt once per generation and then maintained incrementally:
// applying a move idx→q only shifts the genes in [min(idx,q), max(idx,q)],
// so only that span's entries are rewritten between selected tasks.
func (e *Engine) allocate() {
	e.cur.Positions(e.pos)
	for _, t := range e.selected {
		idx := e.pos[t]
		lo, hi := schedule.ValidRange(e.g, e.cur, e.pos, idx)
		machines := e.sys.TopMachines(t, e.opts.Y)

		var mv schedule.Move
		if e.pool != nil {
			mv = e.pool.bestMove(e.cur, idx, lo, hi, machines)
		} else {
			e.delta.Pin(e.cur)
			mv = e.delta.Scan(idx, lo, hi, machines)
		}
		schedule.MoveInto(e.moveBuf, e.cur, idx, mv.Q, machines[mv.MI])
		copy(e.cur, e.moveBuf)
		schedule.UpdatePositions(e.pos, e.cur, idx, mv.Q)
	}
}
