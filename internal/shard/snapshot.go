package shard

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/snap"
	"repro/internal/taskgraph"
)

// Snapshot format: magic + version gate the layout; bump on field changes.
const (
	engineSnapMagic   = "SHEN"
	engineSnapVersion = 1
)

// Snapshot encodes the sharded sweep's complete state: the resolved
// region count (recorded, never re-derived, so an adaptively-sized run
// restores identically on any machine), the reconciliation options, and
// one embedded core-engine snapshot per region. The partition itself is
// not encoded — it is a pure function of (graph, resolved count) and is
// recomputed on restore.
//
// Region snapshots are self-contained: the distributed fan-out dispatches
// exactly these bytes to remote workers, which restore the region engine
// against the induced subgraph and continue the sweep there.
func (e *Engine) Snapshot() ([]byte, error) {
	w := snap.Borrow(engineSnapMagic, engineSnapVersion)
	w.Int(e.opts.Shards)
	w.Int(e.opts.ReconcileSweeps)
	w.Int(e.opts.MaxParallel)
	w.F64(e.opts.Bias)
	w.Int(e.opts.Y)
	w.Int(e.opts.PerturbAfter)
	w.Bool(e.opts.FullEval)
	w.I64(e.opts.Seed)
	w.Int(len(e.engines))
	for r, eng := range e.engines {
		sub, err := eng.Snapshot()
		if err != nil {
			w.Release()
			return nil, fmt.Errorf("shard: snapshot region %d: %w", r, err)
		}
		w.Blob(sub)
		w.Bool(e.stalled[r])
		w.F64(e.regionBest[r])
	}
	w.Int(e.rounds)
	// Retired "stopped" flag of the removed region observer, kept so the
	// layout (and every snapshot-size golden) is unchanged.
	w.Bool(false)
	w.I64(int64(e.elapsed))
	return w.Detach(), nil
}

// RestoreEngine rebuilds an Engine from a Snapshot against the same
// (graph, system) pair: the partition is recomputed from the recorded
// resolved count, each region's subproblem re-induced, and each region
// engine restored from its embedded snapshot.
func RestoreEngine(data []byte, g *taskgraph.Graph, sys *platform.System) (*Engine, error) {
	r, err := snap.NewReader(data, engineSnapMagic, engineSnapVersion)
	if err != nil {
		return nil, fmt.Errorf("shard: restore: %w", err)
	}
	var opts Options
	opts.Shards = r.Int()
	opts.ReconcileSweeps = r.Int()
	opts.MaxParallel = r.Int()
	opts.Bias = r.F64()
	opts.Y = r.Int()
	opts.PerturbAfter = r.Int()
	opts.FullEval = r.Bool()
	opts.Seed = r.I64()
	k := r.Len(1)
	subs := make([][]byte, k)
	stalled := make([]bool, k)
	regionBest := make([]float64, k)
	for i := 0; i < k; i++ {
		// A view suffices: core.RestoreEngine decodes by copying every
		// field out of the blob and retains no reference into it.
		subs[i] = r.BlobView()
		stalled[i] = r.Bool()
		regionBest[i] = r.F64()
	}
	rounds := r.Int()
	r.Bool() // retired "stopped" flag, always false
	elapsed := time.Duration(r.I64())
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("shard: restore: %w", err)
	}
	if opts.Shards < 1 || rounds < 0 || elapsed < 0 {
		return nil, fmt.Errorf("shard: restore: invalid counters (shards %d, rounds %d, elapsed %v)", opts.Shards, rounds, elapsed)
	}
	e, err := newEngineResolved(g, sys, opts)
	if err != nil {
		return nil, fmt.Errorf("shard: restore: %w", err)
	}
	if len(e.engines) != k {
		return nil, fmt.Errorf("shard: restore: snapshot has %d regions, partition yields %d", k, len(e.engines))
	}
	for i := 0; i < k; i++ {
		rg, rsys := g, sys
		if !e.single {
			rg, rsys = e.problems[i].induced.Graph, e.problems[i].sys
		}
		eng, err := core.RestoreEngine(subs[i], rg, rsys)
		if err != nil {
			return nil, fmt.Errorf("shard: restore region %d: %w", i, err)
		}
		e.engines[i] = eng
	}
	e.stalled = stalled
	e.regionBest = regionBest
	e.rounds = rounds
	e.elapsed = elapsed
	return e, nil
}
