package shard

// Per-region access for the distributed fan-out: the coordinator in
// internal/dist treats a sharded Engine as the authoritative partition and
// merge/reconcile machinery while the regions themselves step on remote
// workers. These accessors expose exactly that seam — a region's
// subproblem (to ship as a workload), its engine snapshot (to dispatch and
// re-dispatch), and a way to install remotely-advanced state back into the
// local engine before Result or Snapshot runs.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// RegionProblem returns region r's induced subgraph and machine
// subsystem — the workload a remote worker needs to host the region's
// sweep. The single-region degenerate case returns the full graph and
// system.
func (e *Engine) RegionProblem(r int) (*taskgraph.Graph, *platform.System) {
	if e.single {
		return e.g, e.sys
	}
	return e.problems[r].induced.Graph, e.problems[r].sys
}

// RegionSnapshot encodes region r's SE engine — a self-contained,
// portable description of the region sweep, restorable against the
// region's own subproblem (core.RestoreEngine) or shippable to a worker's
// search-resume endpoint.
func (e *Engine) RegionSnapshot(r int) ([]byte, error) {
	return e.engines[r].Snapshot()
}

// StepRegion advances region r's engine by one generation in-process —
// the coordinator's local fallback when no worker can host the region.
func (e *Engine) StepRegion(r int) schedule.Progress {
	return e.engines[r].Step()
}

// SyncRegion replaces region r's engine with one restored from data (a
// region snapshot, typically advanced on a remote worker since it was
// taken) and installs the region's bookkeeping: its stalled flag and best
// region makespan. Stepping is deterministic, so syncing a remotely
// stepped snapshot leaves the engine exactly as if the region had stepped
// in-process.
func (e *Engine) SyncRegion(r int, data []byte, stalled bool, best float64) error {
	g, sys := e.RegionProblem(r)
	eng, err := core.RestoreEngine(data, g, sys)
	if err != nil {
		return fmt.Errorf("shard: sync region %d: %w", r, err)
	}
	e.engines[r] = eng
	e.stalled[r] = stalled
	e.regionBest[r] = best
	return nil
}

// SyncProgress installs the coordinator's round counter and accumulated
// wall-clock time, so a Snapshot taken after remote rounds restores with
// the same counters an in-process sweep would carry.
func (e *Engine) SyncProgress(rounds int, elapsed time.Duration) {
	e.rounds = rounds
	e.elapsed = elapsed
}
