package ga

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/xrand"
)

// chromosome is Wang et al.'s two-string representation.
type chromosome struct {
	order  []taskgraph.TaskID    // scheduling string: a topological order
	assign []taskgraph.MachineID // matching string: task → machine
	cost   float64               // schedule length; set by evaluate
}

func (c *chromosome) clone() *chromosome {
	return &chromosome{
		order:  append([]taskgraph.TaskID(nil), c.order...),
		assign: append([]taskgraph.MachineID(nil), c.assign...),
		cost:   c.cost,
	}
}

// Engine is one GA search in progress, steppable one generation at a time
// and snapshottable between generations; it implements scheduler.Stepper
// directly. Engines are not safe for concurrent use.
type Engine struct {
	g    *taskgraph.Graph
	sys  *platform.System
	opts Options
	rng  *rand.Rand
	src  *xrand.Source

	pop  []*chromosome
	next []*chromosome
	free []*chromosome // retired chromosomes recycled by cloneOf

	best          *chromosome // best ever seen; nil before the first Step
	gen           int
	sinceImproved int
	elapsed       time.Duration

	// base carries the effort ledger accumulated before a snapshot/restore
	// cut, so a restored search's counts continue instead of resetting.
	base schedule.EvalCounts

	evals    []*schedule.Evaluator // one per worker (index 0 = serial path)
	bufs     []schedule.String
	posBuf   []int
	fitness  []float64
	xbuf1    []taskgraph.TaskID // order-crossover child scratch
	xbuf2    []taskgraph.TaskID // order-crossover child scratch
	inPrefix []bool             // order-crossover membership scratch
}

// cloneOf is chromosome.clone through the engine's freelist: a retired
// chromosome's slices are reused when one is available (every chromosome
// in an engine has the same length, so the copies never grow). The content
// is identical to a fresh clone.
func (e *Engine) cloneOf(src *chromosome) *chromosome {
	n := len(e.free)
	if n == 0 {
		return src.clone()
	}
	c := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	c.order = append(c.order[:0], src.order...)
	c.assign = append(c.assign[:0], src.assign...)
	c.cost = src.cost
	return c
}

// NewEngine validates opts and builds a ready-to-Step engine with its
// initial population drawn.
func NewEngine(g *taskgraph.Graph, sys *platform.System, opts Options) (*Engine, error) {
	e, err := newShell(g, sys, opts, xrand.NewSource(opts.Seed))
	if err != nil {
		return nil, err
	}
	if opts.Initial != nil {
		if err := schedule.Validate(opts.Initial, g, sys); err != nil {
			return nil, fmt.Errorf("ga: Options.Initial: %w", err)
		}
	}
	e.pop = e.initialPopulation()
	return e, nil
}

// newShell builds an engine drawing from src with everything but the
// population — the shared half of NewEngine and the snapshot Restore path.
func newShell(g *taskgraph.Graph, sys *platform.System, opts Options, src *xrand.Source) (*Engine, error) {
	if g.NumTasks() != sys.NumTasks() {
		return nil, fmt.Errorf("ga: graph has %d tasks but system is sized for %d", g.NumTasks(), sys.NumTasks())
	}
	opts = opts.withDefaults()
	if opts.PopulationSize < 2 {
		return nil, fmt.Errorf("ga: PopulationSize = %d, want >= 2", opts.PopulationSize)
	}
	if opts.CrossoverRate < 0 || opts.CrossoverRate > 1 {
		return nil, fmt.Errorf("ga: CrossoverRate = %v, want in [0,1]", opts.CrossoverRate)
	}
	if opts.MutationRate < 0 || opts.MutationRate > 1 {
		return nil, fmt.Errorf("ga: MutationRate = %v, want in [0,1]", opts.MutationRate)
	}

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	// evaluate fans out only with at least two chromosomes per worker, so
	// more workers than half the population always evaluate on worker 0:
	// build the smallest such count, which evaluates identically. Workers
	// arrives from snapshots, so this also bounds what a hostile one can
	// make a restore allocate.
	if most := opts.PopulationSize/2 + 1; workers > most {
		workers = most
	}
	e := &Engine{
		g:        g,
		sys:      sys,
		opts:     opts,
		rng:      src.Rand(),
		src:      src,
		posBuf:   make([]int, g.NumTasks()),
		fitness:  make([]float64, opts.PopulationSize),
		xbuf1:    make([]taskgraph.TaskID, g.NumTasks()),
		xbuf2:    make([]taskgraph.TaskID, g.NumTasks()),
		inPrefix: make([]bool, g.NumTasks()),
	}
	for i := 0; i < workers; i++ {
		e.evals = append(e.evals, schedule.NewEvaluator(g, sys))
		e.bufs = append(e.bufs, make(schedule.String, g.NumTasks()))
	}
	e.next = make([]*chromosome, 0, opts.PopulationSize)
	return e, nil
}

// initialPopulation draws random matchings and uniformly random topological
// orders; when Options.Initial is set, chromosome 0 carries that solution
// (Wang et al. seed the population with a baseline heuristic).
func (e *Engine) initialPopulation() []*chromosome {
	pop := make([]*chromosome, e.opts.PopulationSize)
	for i := range pop {
		n := e.g.NumTasks()
		c := &chromosome{
			order:  e.g.RandomTopoOrder(e.rng),
			assign: make([]taskgraph.MachineID, n),
		}
		for t := range c.assign {
			c.assign[t] = taskgraph.MachineID(e.rng.Intn(e.sys.NumMachines()))
		}
		pop[i] = c
	}
	if e.opts.Initial != nil {
		pop[0] = &chromosome{
			order:  e.opts.Initial.Order(),
			assign: e.opts.Initial.Assignment(),
		}
	}
	return pop
}

// Stalled reports whether the last noImprove generations all failed to
// improve the best makespan — the Budget.NoImprovement test.
func (e *Engine) Stalled(noImprove int) bool { return e.sinceImproved >= noImprove }

// Done reports false: evolution has no intrinsic exhaustion point.
func (e *Engine) Done() bool { return false }

// Step runs one GA generation — fitness evaluation, then selection,
// crossover and mutation into the next population — and returns the
// generation's observation, captured after evaluation, before evolution:
// Current is the best cost within the evaluated generation.
func (e *Engine) Step() schedule.Progress {
	start := time.Now()
	genBest := e.evaluate()
	if e.best == nil || genBest.cost < e.best.cost {
		if e.best != nil {
			e.free = append(e.free, e.best)
		}
		e.best = e.cloneOf(genBest)
		e.sinceImproved = 0
	} else {
		e.sinceImproved++
	}
	stats := schedule.Progress{
		Iteration: e.gen,
		Current:   genBest.cost,
		Best:      e.best.cost,
		Elapsed:   e.elapsed + time.Since(start),
	}
	e.evolve(genBest)
	e.gen++
	e.elapsed += time.Since(start)
	return stats
}

// Result finalizes the engine's state into a Result. Before the first
// Step the best chromosome is undefined, so Result scores the initial
// population's chromosome 0 to return something valid — on an uncounted
// evaluator, so that reading the best before the first generation leaves
// the effort ledger untouched. The engine remains steppable afterwards.
// Iterations counts completed generations.
func (e *Engine) Result() *schedule.Result {
	if e.best == nil {
		c := e.pop[0]
		s := schedule.FromOrder(c.order, c.assign)
		return schedule.NewResult(s, schedule.NewEvaluator(e.g, e.sys).Makespan(s), e.gen, e.counts(), e.elapsed)
	}
	return schedule.NewResult(schedule.FromOrder(e.best.order, e.best.assign), e.best.cost, e.gen, e.counts(), e.elapsed)
}

// counts sums the search's effort ledger across every worker evaluator,
// on top of the pre-restore base.
func (e *Engine) counts() schedule.EvalCounts {
	counts := e.base
	for _, ev := range e.evals {
		counts = counts.Add(ev.Counts())
	}
	return counts
}

// evaluate computes every chromosome's schedule length, optionally fanned
// out over the worker evaluators, and returns the generation's best
// chromosome: the first one, in population order, of least cost.
func (e *Engine) evaluate() (genBest *chromosome) {
	nw := len(e.evals)
	if nw > 1 && len(e.pop) >= 2*nw {
		var wg sync.WaitGroup
		chunk := (len(e.pop) + nw - 1) / nw
		for wi := 0; wi < nw; wi++ {
			lo, hi := wi*chunk, (wi+1)*chunk
			if hi > len(e.pop) {
				hi = len(e.pop)
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(wi, lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					e.pop[i].cost = e.costOf(e.pop[i], wi)
				}
			}(wi, lo, hi)
		}
		wg.Wait()
	} else {
		for _, c := range e.pop {
			c.cost = e.costOf(c, 0)
		}
	}
	for _, c := range e.pop {
		if genBest == nil || c.cost < genBest.cost {
			genBest = c
		}
	}
	return genBest
}

// costOf computes one chromosome's schedule length with one full pass on
// the worker's evaluator: GA scores whole strings, with no bound to prune
// against and no base string most chromosomes share.
func (e *Engine) costOf(c *chromosome, worker int) float64 {
	buf := e.bufs[worker]
	for i, t := range c.order {
		buf[i] = schedule.Gene{Task: t, Machine: c.assign[t]}
	}
	return e.evals[worker].Makespan(buf)
}

// evolve produces the next generation from the evaluated population and
// its best chromosome genBest: genBest carried over unchanged, then
// roulette-wheel selection on fitness = (worst cost − cost), crossover,
// mutation.
func (e *Engine) evolve(genBest *chromosome) {
	// After the swap at the end of the previous evolve, e.next holds the
	// retired generation: every survivor was cloned into the current
	// population, so nothing else references these chromosomes and they
	// feed the freelist that cloneOf draws from.
	e.free = append(e.free, e.next...)
	e.next = e.next[:0]

	e.next = append(e.next, e.cloneOf(genBest))

	// Roulette wheel: fitness is the cost headroom below the generation's
	// worst. A uniform wheel results when all costs are equal.
	worst := genBest.cost
	for _, c := range e.pop {
		worst = max(worst, c.cost)
	}
	totalFit := 0.0
	for i, c := range e.pop {
		f := worst - c.cost
		e.fitness[i] = f
		totalFit += f
	}

	for len(e.next) < e.opts.PopulationSize {
		p1 := e.spin(totalFit)
		p2 := e.spin(totalFit)
		c1, c2 := e.cloneOf(p1), e.cloneOf(p2)
		if e.rng.Float64() < e.opts.CrossoverRate {
			e.orderCrossover(c1, c2)
		}
		if e.rng.Float64() < e.opts.CrossoverRate {
			e.matchingCrossover(c1, c2)
		}
		e.mutate(c1)
		e.mutate(c2)
		e.next = append(e.next, c1)
		if len(e.next) < e.opts.PopulationSize {
			e.next = append(e.next, c2)
		}
	}
	e.pop, e.next = e.next, e.pop
}

// spin picks one parent by roulette wheel over e.fitness; a zero wheel
// (all chromosomes equally bad) degenerates to uniform choice.
func (e *Engine) spin(totalFit float64) *chromosome {
	if totalFit <= 0 {
		return e.pop[e.rng.Intn(len(e.pop))]
	}
	r := e.rng.Float64() * totalFit
	acc := 0.0
	for i, c := range e.pop {
		acc += e.fitness[i]
		if r < acc {
			return c
		}
	}
	return e.pop[len(e.pop)-1]
}
