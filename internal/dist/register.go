package dist

// Registry wiring for "se-dist". The package registers itself (rather
// than being registered from internal/scheduler's own init) because the
// coordinator speaks the serving layer's client, and internal/serve
// already imports internal/scheduler — registering from the scheduler
// package would close an import cycle. Binaries that want se-dist
// available blank-import this package, exactly like database/sql drivers.

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/scheduler"
	"repro/internal/shard"
	"repro/internal/taskgraph"
)

func init() {
	scheduler.Register("se-dist", scheduler.Metaheuristic,
		"sharded SE stepped on a pool of remote mshd workers, reconciled centrally",
		openSEDist, restoreSEDist)
}

// seDistStepper adapts the coordinator Engine to the registry's Stepper
// contract: the Engine steps, snapshots and stalls itself, but its Result
// can fail (a worker snapshot that does not restore), which Stepper's
// Result cannot express.
type seDistStepper struct{ *Engine }

func openSEDist(cfg scheduler.Config, g *taskgraph.Graph, sys *platform.System) (scheduler.Stepper, error) {
	e, err := NewEngine(g, sys, Options{
		Shard: shard.Options{
			Shards:       cfg.Shards,
			Bias:         cfg.Bias,
			Y:            cfg.Y,
			PerturbAfter: cfg.PerturbAfter,
			Seed:         cfg.Seed,
			Initial:      cfg.Initial,
			MaxParallel:  cfg.Workers,
		},
		RoundBatch: cfg.RoundBatch,
		WorkerURLs: cfg.WorkerURLs,
		Metrics:    cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return seDistStepper{e}, nil
}

func restoreSEDist(data []byte, g *taskgraph.Graph, sys *platform.System) (scheduler.Stepper, error) {
	e, err := RestoreEngine(data, g, sys)
	if err != nil {
		return nil, err
	}
	return seDistStepper{e}, nil
}

// Result syncs the regions' latest snapshots into the embedded sharded
// engine and returns the merged, reconciled outcome.
func (s seDistStepper) Result() *scheduler.Result {
	r, err := s.Engine.Result()
	if err != nil {
		// Unreachable without a protocol violation (a worker snapshot
		// that unwrapped but does not restore); surface loudly rather
		// than returning fabricated state.
		panic(fmt.Sprintf("dist: result: %v", err))
	}
	return r
}

// Done reports false: the sweep has no intrinsic exhaustion point.
func (s seDistStepper) Done() bool { return false }
