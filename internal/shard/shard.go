// Package shard scales simulated evolution to large task DAGs by spatial
// decomposition: the DAG is partitioned into weakly-coupled regions
// (contiguous level bands cut where the crossing communication volume is
// smallest, see PartitionLevelBands), each region runs its own SE
// allocation sweep in parallel — with its own rng stream and its own
// incremental evaluator pinning region-local checkpoints — and a bounded
// boundary-reconciliation pass then re-evaluates the cross-region edges on
// the merged string and re-places the tasks consuming them.
//
// The exploitable structure is the same one the incremental evaluation
// engine's sparse replay measures (see DESIGN.md): most allocation
// disturbances stay local, so distant parts of a large string rarely
// interact within a sweep. Sharding turns that observation into
// parallelism — per-generation allocation cost falls superlinearly with
// region size while the regions run concurrently — at the price of
// searching cross-region placements only during reconciliation.
//
// Determinism: the partition is a pure function of (graph, shard count),
// each region's seed derives deterministically from Options.Seed and the
// region index, regions do not share mutable state, and the merge and
// reconciliation are sequential — so a sharded run is reproducible under a
// fixed seed. A run that partitions into a single region delegates to a
// serial SE engine unchanged and is bit-identical to serial SE (enforced
// by the differential tests).
//
// The sweep is organised as a resumable Engine: one Step advances every
// region by one SE generation (in parallel), and Result merges and
// reconciles the regions' current bests. internal/scheduler registers the
// Engine itself as "se-shard" behind its Open/Step/Snapshot/Restore API,
// which is also the seam for dispatching region engines to remote
// workers — a region's Snapshot is a complete, portable description of
// its sweep.
package shard

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// Options configures one sharded SE sweep. The caller's Step loop (or
// scheduler.Drive) bounds every region's sweep.
type Options struct {
	// Shards is the requested region count. 0 picks it adaptively from
	// the DAG's depth, the candidate partitions' residual coupling and
	// GOMAXPROCS (see AdaptiveShards). The effective count is clamped to
	// the DAG depth; one effective region delegates to serial SE.
	Shards int

	// MaxParallel caps the number of regions sweeping concurrently
	// (0 = all at once).
	MaxParallel int

	// Bias, Y and PerturbAfter configure each region's SE engine exactly
	// as in core.Options; Y also bounds the candidate machines of the
	// reconciliation scan.
	Bias         float64
	Y            int
	PerturbAfter int

	// Seed drives all randomness. Region r runs under a seed derived
	// deterministically from (Seed, r); equal Options and inputs give
	// identical results.
	Seed int64

	// Initial, when non-nil, seeds the run: each region starts from the
	// projection of this solution onto its tasks (the subsequence of the
	// string restricted to the region, machines preserved), which is a
	// valid region solution because any subsequence of a topological
	// order is a topological order of the induced subgraph. It must be
	// valid for the full graph/system.
	Initial schedule.String
}

// regionSeed derives region r's rng seed from the run seed: a fixed
// odd multiplier (the 64-bit golden-ratio constant) keeps the streams
// decorrelated and the derivation deterministic.
func regionSeed(seed int64, r int) int64 {
	return int64(uint64(seed) + uint64(r+1)*0x9E3779B97F4A7C15)
}

// regionProblem is one region's induced subproblem.
type regionProblem struct {
	induced *taskgraph.Induced
	sys     *platform.System
}

// Engine is one sharded SE sweep in progress: per-region serial SE
// engines advanced in parallel rounds, merged and reconciled on demand. It
// implements scheduler.Stepper directly. Engines are not safe for
// concurrent use (each Step internally fans out over the regions, but
// Step itself must not be called concurrently, and Result updates the
// reconciliation memo).
type Engine struct {
	g    *taskgraph.Graph
	sys  *platform.System
	opts Options

	part     *Partition
	problems []regionProblem
	engines  []*core.Engine
	// single marks the one-region degenerate case: the region is the
	// whole DAG under the caller's own seed, bit-identical to serial SE.
	single bool

	stalled    []bool
	regionBest []float64
	rounds     int
	elapsed    time.Duration

	// Per-round scratch, hoisted out of Step so a long sweep allocates
	// nothing per round.
	roundStats []schedule.Progress
	sem        chan struct{}

	// memo is the last reconciliation, keyed on its merged input.
	memo reconciled
}

// reconciled is one reconciliation's input and output. Reconciliation is
// a pure function of the merged string (the partition, boundary set and
// Y are fixed per engine), so Result reuses it for
// as long as the regions' bests merge to the same string. It is derived
// state, not search state: snapshots omit it and a restored engine
// reconciles afresh on its first Result.
type reconciled struct {
	merged schedule.String
	best   schedule.String
	ms     float64
	counts schedule.EvalCounts
}

// NewEngine partitions g and builds one SE engine per region, ready to
// Step. The caller's Step loop bounds the sweep.
func NewEngine(g *taskgraph.Graph, sys *platform.System, opts Options) (*Engine, error) {
	if opts.Shards < 0 {
		return nil, fmt.Errorf("shard: Shards = %d, want >= 0", opts.Shards)
	}
	if opts.Shards == 0 {
		opts.Shards = AdaptiveShards(g)
	}
	e, err := newShell(g, sys, opts)
	if err != nil {
		return nil, err
	}
	if opts.Initial != nil {
		if err := schedule.Validate(opts.Initial, g, sys); err != nil {
			return nil, fmt.Errorf("shard: Options.Initial: %w", err)
		}
	}
	if e.single {
		// One region is serial SE on the whole DAG: run it under the
		// caller's own seed and initial solution so the result is
		// bit-identical to core SE with the same Options — the
		// differential tests pin this down.
		copts := regionOptions(opts, 0)
		copts.Seed = opts.Seed
		copts.Initial = opts.Initial
		eng, err := core.NewEngine(g, sys, copts)
		if err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		e.engines[0] = eng
		return e, nil
	}
	for r, p := range e.problems {
		copts := regionOptions(opts, r)
		if opts.Initial != nil {
			local := make([]taskgraph.TaskID, g.NumTasks()) // parent → local
			for i := range local {
				local[i] = -1
			}
			for i, parent := range p.induced.Tasks {
				local[parent] = taskgraph.TaskID(i)
			}
			init := make(schedule.String, 0, len(p.induced.Tasks))
			for _, gene := range opts.Initial {
				if l := local[gene.Task]; l != -1 {
					init = append(init, schedule.Gene{Task: l, Machine: gene.Machine})
				}
			}
			copts.Initial = init
		}
		eng, err := core.NewEngine(p.induced.Graph, p.sys, copts)
		if err != nil {
			return nil, fmt.Errorf("shard: region %d: %w", r, err)
		}
		e.engines[r] = eng
	}
	return e, nil
}

// newShell partitions g for an already-resolved shard count
// (opts.Shards > 0) and induces every region's subproblem: everything but
// the region engines, which NewEngine builds and RestoreEngine decodes.
// Restore must not re-run the adaptive (machine-dependent) resolution.
func newShell(g *taskgraph.Graph, sys *platform.System, opts Options) (*Engine, error) {
	if g.NumTasks() != sys.NumTasks() {
		return nil, fmt.Errorf("shard: graph has %d tasks but system is sized for %d", g.NumTasks(), sys.NumTasks())
	}
	if g.NumItems() != sys.NumItems() {
		return nil, fmt.Errorf("shard: graph has %d items but system is sized for %d", g.NumItems(), sys.NumItems())
	}
	part := PartitionLevelBands(g, opts.Shards)
	k := part.NumRegions()
	e := &Engine{
		g:          g,
		sys:        sys,
		opts:       opts,
		part:       part,
		single:     k == 1,
		engines:    make([]*core.Engine, k),
		stalled:    make([]bool, k),
		regionBest: make([]float64, k),
		roundStats: make([]schedule.Progress, k),
	}
	if opts.MaxParallel > 0 && opts.MaxParallel < k {
		e.sem = make(chan struct{}, opts.MaxParallel)
	}
	if e.single {
		return e, nil
	}
	e.problems = make([]regionProblem, k)
	for r, tasks := range part.Regions {
		induced, err := g.Induce(tasks)
		if err != nil {
			return nil, fmt.Errorf("shard: region %d: %w", r, err)
		}
		subsys, err := sys.Subsystem(induced.Tasks, induced.Items)
		if err != nil {
			return nil, fmt.Errorf("shard: region %d: %w", r, err)
		}
		e.problems[r] = regionProblem{induced: induced, sys: subsys}
	}
	return e, nil
}

// Regions returns the effective region count.
func (e *Engine) Regions() int { return len(e.engines) }

// Stalled flags every region whose sweep has gone noImprove generations
// without improving its region best — such regions sit out subsequent
// Steps, preserving the per-region NoImprovement semantics of independent
// sweeps — and reports whether every region is now stalled.
func (e *Engine) Stalled(noImprove int) bool {
	if noImprove <= 0 {
		return false
	}
	all := true
	for r, eng := range e.engines {
		if !e.stalled[r] && eng.Stalled(noImprove) {
			e.stalled[r] = true
		}
		if !e.stalled[r] {
			all = false
		}
	}
	return all
}

// Done reports false: the sweep has no intrinsic exhaustion point.
func (e *Engine) Done() bool { return false }

// Step advances every live region by one SE generation, fanning the
// regions out over goroutines (capped by Options.MaxParallel), and
// returns the round's observation: Current and Best are the max over the
// regions' local current and best makespans — coarse lower estimates of
// the merged schedule length until Result's reconciliation corrects them
// — and Selected sums the live regions' selection sets.
func (e *Engine) Step() schedule.Progress {
	start := time.Now()
	stats := e.roundStats
	sem := e.sem
	var wg sync.WaitGroup
	for r := range e.engines {
		if e.stalled[r] {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			stats[r] = e.engines[r].Step()
		}(r)
	}
	wg.Wait()

	round := schedule.Progress{Iteration: e.rounds}
	for r := range e.engines {
		if !e.stalled[r] {
			round.Selected += stats[r].Selected
			round.Current = max(round.Current, stats[r].Current)
			if e.regionBest[r] == 0 || stats[r].Best < e.regionBest[r] {
				e.regionBest[r] = stats[r].Best
			}
		}
		round.Best = max(round.Best, e.regionBest[r])
	}
	e.rounds++
	e.elapsed += time.Since(start)
	round.Elapsed = e.elapsed
	return round
}

// Result merges the regions' current best solutions in band order,
// repairs and reconciles the merged string, and returns the full-graph
// outcome; Iterations is the maximum generation count over all regions.
// When the merged string equals the previous call's, the previous
// reconciliation is returned again without being recomputed. The engine
// remains steppable afterwards; Result may be called mid-sweep to inspect
// the best merged solution so far.
func (e *Engine) Result() *schedule.Result {
	if e.single {
		res := e.engines[0].Result()
		res.Elapsed = e.elapsed
		return res
	}
	// Merge in band order: cross-region edges all point from lower to
	// higher bands, so the concatenation of the regions' topological
	// strings is a topological string of the whole DAG.
	merged := make(schedule.String, 0, e.g.NumTasks())
	iterations := 0
	var counts schedule.EvalCounts
	for r, eng := range e.engines {
		res := eng.Result()
		for _, gene := range res.Best {
			merged = append(merged, schedule.Gene{
				Task:    e.problems[r].induced.ParentTask(gene.Task),
				Machine: gene.Machine,
			})
		}
		iterations = max(iterations, res.Iterations)
		counts.Full += res.Evaluations
		counts.Delta += res.DeltaEvaluations
		counts.Genes += res.GenesEvaluated
	}
	if !slices.Equal(merged, e.memo.merged) {
		rec := newReconciler(e.g, e.sys, e.opts.Y)
		// run reconciles schedule.Repair's copy, so merged stays intact
		// as the memo key.
		best, ms := rec.run(merged, e.part.Boundary(e.g))
		e.memo = reconciled{merged: merged, best: best, ms: ms, counts: rec.counts()}
	}
	m := &e.memo
	return schedule.NewResult(m.best.Clone(), m.ms, iterations, m.counts.Add(counts), e.elapsed)
}

// regionOptions builds region r's core.Options from the shard Options.
// Stopping bounds are omitted: the Engine's Step loop bounds every
// region's sweep externally.
func regionOptions(opts Options, r int) core.Options {
	return core.Options{
		Bias:         opts.Bias,
		Y:            opts.Y,
		PerturbAfter: opts.PerturbAfter,
		Seed:         regionSeed(opts.Seed, r),
	}
}
