// Package dist turns the sharded SE sweep from multi-core into
// multi-machine: a coordinator partitions the DAG exactly as
// internal/shard does, dispatches each region's self-contained engine
// snapshot to a pool of remote mshd workers over the serving layer's
// resumable-search API, steps the regions in batched rounds (RoundBatch
// generations per RPC, amortizing network latency), and merges and
// reconciles the regions' results centrally through the unchanged
// shard.Engine Result path.
//
// The crash-tolerance argument is determinism: a region's snapshot plus a
// generation count fully determines the region's future state, so when a
// worker times out or dies the coordinator simply re-dispatches the
// region's last accepted snapshot to another worker and re-issues the
// round — the recovered run is bit-identical to an undisturbed one. The
// same property makes straggler re-issue (hedging) safe: two workers
// stepping the same snapshot compute the same bytes, and the coordinator
// keeps whichever answers first.
//
// With no workers configured the coordinator steps every region
// in-process through the same shard.Engine, which is also bit-identical —
// remote execution changes where generations run, never what they
// compute. The registry exposes the coordinator as "se-dist"
// (scheduler.WithWorkerURLs, WithRoundBatch).
package dist

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// DefaultRequestTimeout bounds one coordinator→worker RPC when
// Options.RequestTimeout is zero.
const DefaultRequestTimeout = 30 * time.Second

// maxStepAttempts bounds the placement/step retries per region per round
// before the coordinator falls back to stepping the region in-process.
const maxStepAttempts = 4

// regionAlgorithm is the registry name region engines run under on
// workers: each region is an ordinary serial SE search over the region's
// induced subproblem.
const regionAlgorithm = "se"

// Options configures a distributed sharded run.
type Options struct {
	// Shard configures the partition and the per-region SE engines,
	// exactly as for an in-process sharded run.
	Shard shard.Options

	// RoundBatch is the number of generations every region advances per
	// coordinator round — one worker RPC per region per round. 0 or 1
	// steps one generation per round, matching shard.Engine.Step
	// semantics exactly; larger batches amortize network latency at the
	// cost of coarser round observations.
	RoundBatch int

	// WorkerURLs lists the mshd workers' base URLs. Empty runs every
	// region in-process (bit-identical to the remote path).
	WorkerURLs []string

	// RequestTimeout bounds each worker RPC (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration

	// Metrics is the registry the coordinator's transport counters and
	// per-worker health/latency/load gauges register on, so a serving
	// process exposes them on /metrics mid-run. Nil gets a private
	// registry. Observation-only either way.
	Metrics *obs.Registry
}

// region is one shard region's dispatch state: the last accepted engine
// snapshot (the authoritative region state), the worker session hosting
// it, and the round bookkeeping mirroring shard.Engine's per-region
// fields.
type region struct {
	index                  int
	doc                    []byte // workload document of the induced subproblem
	payload                []byte // last accepted core-engine snapshot
	tasks, machines, items int

	w       *worker
	session string

	stalled       bool
	best          float64 // best region makespan so far (0 = none yet)
	sinceImproved int     // generations since best improved

	// Last accepted round's observation, aggregated into the round's
	// Progress.
	lastCurrent  float64
	lastSelected int
	lastOK       bool // region advanced this round
}

// Engine is a distributed sharded sweep in progress. It embeds an
// in-process shard.Engine that owns the partition and the merge/reconcile
// machinery; in remote mode the region engines inside it are brought up
// to date from the workers' snapshots lazily, before Result or Snapshot
// read them. Engines are not safe for concurrent use.
type Engine struct {
	local *shard.Engine
	batch int

	pool    *pool // nil = in-process mode
	regions []*region
	rounds  int
	elapsed time.Duration
	// dirty marks remote region state not yet synced into local.
	dirty bool

	// met is lock-free: region rounds (and hedges within them) mutate it
	// concurrently.
	met *distMetrics
}

// NewEngine partitions g, builds the per-region engines, and — when
// workers are configured — creates one session per region on the pool and
// seeds it with the region's snapshot. Workers unreachable at
// construction time are retried round by round; until a region can be
// placed it steps in-process.
func NewEngine(g *taskgraph.Graph, sys *platform.System, o Options) (*Engine, error) {
	local, err := shard.NewEngine(g, sys, o.Shard)
	if err != nil {
		return nil, err
	}
	batch := o.RoundBatch
	if batch <= 0 {
		batch = 1
	}
	if batch > serve.MaxStepsPerRequest {
		return nil, fmt.Errorf("dist: RoundBatch %d exceeds the per-request step cap %d", batch, serve.MaxStepsPerRequest)
	}
	e := &Engine{local: local, batch: batch, met: newDistMetrics(o.Metrics)}
	if len(o.WorkerURLs) == 0 {
		return e, nil
	}
	timeout := o.RequestTimeout
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	e.pool = newPool(o.WorkerURLs, timeout, e.met)
	e.regions = make([]*region, local.Regions())
	for r := range e.regions {
		rg := &region{index: r}
		rgGraph, rgSys := local.RegionProblem(r)
		rg.tasks, rg.machines, rg.items = rgGraph.NumTasks(), rgSys.NumMachines(), rgGraph.NumItems()
		var buf bytes.Buffer
		if err := workload.Encode(&buf, &workload.Workload{
			Name:  fmt.Sprintf("dist-region-%d", r),
			Graph: rgGraph, System: rgSys,
		}); err != nil {
			return nil, fmt.Errorf("dist: region %d: %w", r, err)
		}
		rg.doc = buf.Bytes()
		if rg.payload, err = local.RegionSnapshot(r); err != nil {
			return nil, fmt.Errorf("dist: region %d: %w", r, err)
		}
		e.regions[r] = rg
	}
	// Best-effort initial placement; failures leave the region unplaced
	// and stepRegion retries (or steps in-process) each round.
	ctx := context.Background()
	for _, rg := range e.regions {
		if w := e.pool.pick(nil); w != nil {
			if sid, err := e.placeRegion(ctx, w, rg); err == nil {
				rg.w, rg.session = w, sid
			}
		}
	}
	return e, nil
}

// Remote reports whether the coordinator dispatches to workers (false =
// in-process mode).
func (e *Engine) Remote() bool { return e.pool != nil }

// RoundBatch returns the generations-per-round count.
func (e *Engine) RoundBatch() int { return e.batch }

// Regions returns the effective region count.
func (e *Engine) Regions() int { return e.local.Regions() }

// Step advances every live region by RoundBatch generations — one RPC per
// remote region, in parallel — and returns the round's aggregated
// observation (shard.Engine.Step semantics; with RoundBatch > 1 it
// reflects each region's last executed generation).
func (e *Engine) Step() schedule.Progress {
	if e.pool == nil {
		var st schedule.Progress
		for i := 0; i < e.batch; i++ {
			st = e.local.Step()
		}
		return st
	}
	start := time.Now()
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, rg := range e.regions {
		if rg.stalled {
			rg.lastOK = false
			continue
		}
		wg.Add(1)
		go func(rg *region) {
			defer wg.Done()
			e.stepRegion(ctx, rg)
		}(rg)
	}
	wg.Wait()

	round := schedule.Progress{Iteration: e.rounds}
	for _, rg := range e.regions {
		if rg.lastOK {
			round.Selected += rg.lastSelected
			round.Current = max(round.Current, rg.lastCurrent)
		}
		round.Best = max(round.Best, rg.best)
	}
	e.rounds++
	dur := time.Since(start)
	e.elapsed += dur
	round.Elapsed = e.elapsed
	e.dirty = true
	e.met.rounds.Inc()
	e.met.roundDur.Observe(dur.Seconds())
	return round
}

// Stalled flags every region that has gone noImprove generations without
// improving its region best (per-region stagnation, exactly as
// shard.Engine.Stalled) and reports whether every region is now stalled.
// With RoundBatch > 1 staleness is counted at round granularity.
func (e *Engine) Stalled(noImprove int) bool {
	if e.pool == nil {
		return e.local.Stalled(noImprove)
	}
	if noImprove <= 0 {
		return false
	}
	all := true
	for _, rg := range e.regions {
		if !rg.stalled && rg.sinceImproved >= noImprove {
			rg.stalled = true
		}
		if !rg.stalled {
			all = false
		}
	}
	return all
}

// Result merges the regions' current best solutions, repairs and
// reconciles the merged string, and returns the full-graph outcome — the
// unchanged shard.Engine path, fed by the workers' latest snapshots. The
// engine remains steppable afterwards.
func (e *Engine) Result() (*schedule.Result, error) {
	if err := e.syncLocal(); err != nil {
		return nil, err
	}
	return e.local.Result(), nil
}

// Snapshot encodes the sweep's complete state: the round batch plus the
// embedded sharded-engine snapshot, region engines first synced from the
// workers. Restoring yields an in-process engine that continues
// bit-identically (where generations run never changes what they
// compute).
func (e *Engine) Snapshot() ([]byte, error) {
	if err := e.syncLocal(); err != nil {
		return nil, err
	}
	return e.encodeSnapshot()
}

// syncLocal installs every region's last accepted remote snapshot into
// the local shard engine, so Result and Snapshot read current state. A
// failure here is a protocol violation — the payload was produced by a
// worker's snapshot endpoint and accepted structurally — and poisons
// nothing: the engine can keep stepping and re-sync later.
func (e *Engine) syncLocal() error {
	if e.pool == nil || !e.dirty {
		return nil
	}
	for _, rg := range e.regions {
		if err := e.local.SyncRegion(rg.index, rg.payload, rg.stalled, rg.best); err != nil {
			return fmt.Errorf("dist: region %d: %w", rg.index, err)
		}
	}
	e.local.SyncProgress(e.rounds*e.batch, e.elapsed)
	e.dirty = false
	return nil
}
