package ga

import (
	"fmt"
	"math/rand"
	"sort"
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

	evals    []*schedule.Evaluator      // one per worker (index 0 = serial path)
	deltas   []*schedule.DeltaEvaluator // one per worker; nil under FullEval
	bufs     []schedule.String
	posBuf   []int
	fitness  []float64
	sorter   chromoSorter       // elitism sort scratch (evolve)
	xbuf1    []taskgraph.TaskID // order-crossover child scratch
	xbuf2    []taskgraph.TaskID // order-crossover child scratch
	inPrefix []bool             // order-crossover membership scratch
}

// chromoSorter stable-sorts a chromosome slice by cost. It exists (rather
// than sort.SliceStable) so evolve's elitism sort runs through a pointer
// receiver with zero per-call allocations; stable sorting makes the order
// deterministic either way.
type chromoSorter struct{ cs []*chromosome }

func (s *chromoSorter) Len() int           { return len(s.cs) }
func (s *chromoSorter) Less(i, j int) bool { return s.cs[i].cost < s.cs[j].cost }
func (s *chromoSorter) Swap(i, j int)      { s.cs[i], s.cs[j] = s.cs[j], s.cs[i] }

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
	e, err := newShell(g, sys, opts)
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

// newShell builds an engine with everything but the population — the
// shared half of NewEngine and the snapshot Restore path.
func newShell(g *taskgraph.Graph, sys *platform.System, opts Options) (*Engine, error) {
	if g.NumTasks() != sys.NumTasks() {
		return nil, fmt.Errorf("ga: graph has %d tasks but system is sized for %d", g.NumTasks(), sys.NumTasks())
	}
	opts = opts.withDefaults()
	if opts.PopulationSize < 2 {
		return nil, fmt.Errorf("ga: PopulationSize = %d, want >= 2", opts.PopulationSize)
	}
	if opts.Elitism < 0 || opts.Elitism >= opts.PopulationSize {
		return nil, fmt.Errorf("ga: Elitism = %d, want in [0, PopulationSize)", opts.Elitism)
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
	rng, src := xrand.New(opts.Seed)
	e := &Engine{
		g:        g,
		sys:      sys,
		opts:     opts,
		rng:      rng,
		src:      src,
		posBuf:   make([]int, g.NumTasks()),
		fitness:  make([]float64, opts.PopulationSize),
		xbuf1:    make([]taskgraph.TaskID, g.NumTasks()),
		xbuf2:    make([]taskgraph.TaskID, g.NumTasks()),
		inPrefix: make([]bool, g.NumTasks()),
	}
	e.sorter.cs = make([]*chromosome, 0, opts.PopulationSize)
	for i := 0; i < workers; i++ {
		e.evals = append(e.evals, schedule.NewEvaluator(g, sys))
		e.bufs = append(e.bufs, make(schedule.String, g.NumTasks()))
		if !opts.FullEval {
			e.deltas = append(e.deltas, schedule.NewDeltaEvaluator(g, sys))
		}
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
	e.evolve()
	e.gen++
	e.elapsed += time.Since(start)
	return stats
}

// Result finalizes the engine's state into a Result. Before the first
// Step the best chromosome is undefined, so Result evaluates the initial
// population's chromosome 0 to return something valid. The engine remains
// steppable afterwards. Iterations counts completed generations.
func (e *Engine) Result() *schedule.Result {
	best := e.best
	if best == nil {
		c := e.pop[0]
		best = &chromosome{order: c.order, assign: c.assign, cost: e.costOf(c, 0, true)}
	}
	return schedule.NewResult(schedule.FromOrder(best.order, best.assign), best.cost, e.gen, e.counts(), e.elapsed)
}

// counts sums the search's effort ledger across every worker evaluator,
// on top of the pre-restore base.
func (e *Engine) counts() schedule.EvalCounts {
	counts := e.base
	for _, ev := range e.evals {
		counts = counts.Add(ev.Counts())
	}
	for _, d := range e.deltas {
		counts = counts.Add(d.Counts())
	}
	return counts
}

// evaluate computes every chromosome's schedule length, optionally fanned
// out over the worker evaluators, and returns the generation's best
// chromosome.
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
					e.pop[i].cost = e.costOf(e.pop[i], wi, i == lo)
				}
			}(wi, lo, hi)
		}
		wg.Wait()
	} else {
		for i, c := range e.pop {
			c.cost = e.costOf(c, 0, i == 0)
		}
	}
	for _, c := range e.pop {
		if genBest == nil || c.cost < genBest.cost {
			genBest = c
		}
	}
	return genBest
}

// costOf computes one chromosome's schedule length. With the incremental
// engine, each worker keeps one pinned chromosome: a string identical to
// it — the elite, which worker 0 re-meets every stagnant generation — is
// answered for free, one sharing a deep prefix (a clone whose mutation
// landed late, an offspring cut far into the string) by replaying only
// the differing suffix. Chunk-first chromosomes re-pin the base so it
// tracks the population; everything else takes the plain full pass — a
// shallow-prefix replay would cost more than it saves. All paths return
// bit-identical costs.
func (e *Engine) costOf(c *chromosome, worker int, rebase bool) float64 {
	buf := e.bufs[worker]
	for i, t := range c.order {
		buf[i] = schedule.Gene{Task: t, Machine: c.assign[t]}
	}
	if e.deltas == nil {
		return e.evals[worker].Makespan(buf)
	}
	d := e.deltas[worker]
	lcp := d.LCP(buf)
	if lcp == len(buf) {
		ms, _, _ := d.SharedPrefixMakespan(buf, schedule.NoBound)
		return ms
	}
	if rebase {
		ms, _ := d.Pin(buf)
		return ms
	}
	if lcp >= 3*len(buf)/5 {
		ms, _, _ := d.SharedPrefixMakespan(buf, schedule.NoBound)
		return ms
	}
	return e.evals[worker].Makespan(buf)
}

// evolve produces the next generation: elitism, roulette-wheel selection on
// fitness = (worst cost − cost), crossover, mutation.
func (e *Engine) evolve() {
	// After the swap at the end of the previous evolve, e.next holds the
	// retired generation: every survivor was cloned into the current
	// population, so nothing else references these chromosomes and they
	// feed the freelist that cloneOf draws from.
	e.free = append(e.free, e.next...)
	e.next = e.next[:0]

	// Elitism: carry the best chromosomes over unchanged.
	e.sorter.cs = append(e.sorter.cs[:0], e.pop...)
	sort.Stable(&e.sorter)
	byCost := e.sorter.cs
	for i := 0; i < e.opts.Elitism; i++ {
		e.next = append(e.next, e.cloneOf(byCost[i]))
	}

	// Roulette wheel: fitness is the cost headroom below the generation's
	// worst. A uniform wheel results when all costs are equal.
	worst := byCost[len(byCost)-1].cost
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
