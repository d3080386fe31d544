package ga

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
	engineSnapMagic = "GAEN"
	// engineSnapVersion 2 added the effort ledger, so restored searches
	// report cumulative evaluation counts; 3 dropped the
	// evaluator-selection flag and the pinned bases of the retired
	// incremental fitness path; 4 dropped the elite count, which is
	// fixed at one.
	engineSnapVersion = 4
)

// appendChromosomeSnap writes c in the combined schedule.String encoding —
// gene i is (order[i], assign[order[i]]) — producing bytes identical to
// schedule.AppendSnap(w, schedule.FromOrder(c.order, c.assign)) without
// materializing the intermediate String. The two Wang-et-al strings
// round-trip losslessly because order is a permutation, so Assignment()
// recovers every task's machine on restore.
func appendChromosomeSnap(w *snap.Writer, c *chromosome) {
	w.Int(len(c.order))
	for _, t := range c.order {
		w.Int(int(t))
		w.Int(int(c.assign[t]))
	}
}

// Snapshot encodes the search's complete state — options, rng stream
// position, the full population and the best chromosome — as a versioned,
// deterministic byte string. A restored engine continues bit-identically.
// Population costs are not encoded: Step re-evaluates the population
// before using them, and the evaluators are exact either way.
func (e *Engine) Snapshot() ([]byte, error) {
	w := snap.Borrow(engineSnapMagic, engineSnapVersion)
	w.Int(e.opts.PopulationSize)
	w.F64(e.opts.CrossoverRate)
	w.F64(e.opts.MutationRate)
	w.Int(e.opts.Workers)
	e.src.AppendSnap(w)
	w.Int(len(e.pop))
	for _, c := range e.pop {
		appendChromosomeSnap(w, c)
	}
	w.Bool(e.best != nil)
	if e.best != nil {
		appendChromosomeSnap(w, e.best)
		w.F64(e.best.cost)
	}
	w.Int(e.gen)
	w.Int(e.sinceImproved)
	w.I64(int64(e.elapsed))
	e.counts().AppendSnap(w)
	return w.Detach(), nil
}

// RestoreEngine rebuilds an Engine from a Snapshot against the same
// (graph, system) pair. Every decoded chromosome is validated as a
// complete topological solution before use, so corrupted snapshots error
// instead of corrupting the search.
func RestoreEngine(data []byte, g *taskgraph.Graph, sys *platform.System) (*Engine, error) {
	r, err := snap.NewReader(data, engineSnapMagic, engineSnapVersion)
	if err != nil {
		return nil, fmt.Errorf("ga: restore: %w", err)
	}
	var opts Options
	opts.PopulationSize = r.Int()
	opts.CrossoverRate = r.F64()
	opts.MutationRate = r.F64()
	opts.Workers = r.Int()
	src := xrand.ReadSnap(r)
	popLen := r.Len(1)
	var pop []*chromosome
	// readChromosome's error carries no label: the caller names the
	// chromosome only when it fails.
	readChromosome := func() (*chromosome, error) {
		s := schedule.ReadSnap(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := schedule.Validate(s, g, sys); err != nil {
			return nil, err
		}
		return &chromosome{order: s.Order(), assign: s.Assignment()}, nil
	}
	for i := 0; i < popLen; i++ {
		c, err := readChromosome()
		if err != nil {
			return nil, fmt.Errorf("ga: restore: chromosome %d: %w", i, err)
		}
		pop = append(pop, c)
	}
	var best *chromosome
	if r.Bool() {
		best, err = readChromosome()
		if err != nil {
			return nil, fmt.Errorf("ga: restore: best chromosome: %w", err)
		}
		best.cost = r.F64()
	}
	gen := r.Int()
	sinceImproved := r.Int()
	elapsed := time.Duration(r.I64())
	base := schedule.ReadEvalCounts(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("ga: restore: %w", err)
	}
	if gen < 0 || sinceImproved < 0 || elapsed < 0 {
		return nil, fmt.Errorf("ga: restore: negative counters")
	}
	if want := opts.withDefaults().PopulationSize; popLen != want {
		return nil, fmt.Errorf("ga: restore: population has %d chromosomes, options say %d", popLen, want)
	}
	e, err := newShell(g, sys, opts, src)
	if err != nil {
		return nil, fmt.Errorf("ga: restore: %w", err)
	}
	e.pop = pop
	e.best = best
	e.gen = gen
	e.sinceImproved = sinceImproved
	e.elapsed = elapsed
	e.base = base
	return e, nil
}
