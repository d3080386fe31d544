package scheduler

import (
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/platform"
	"repro/internal/sa"
	"repro/internal/shard"
	"repro/internal/tabu"
	"repro/internal/taskgraph"
)

// The metaheuristic engines implement Stepper themselves; registering one
// only maps Config onto its package's Options.
func init() {
	Register("se", Metaheuristic,
		"simulated evolution, the paper's heuristic (Barada, Sait & Baig)",
		openSE, restoreSE)
	Register("se-ils", Metaheuristic,
		"SE with an iterated-local-search kick out of stagnation",
		func(cfg Config, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
			if cfg.PerturbAfter == 0 {
				cfg.PerturbAfter = 25
			}
			return openSE(cfg, g, sys)
		}, restoreSE)
	Register("se-live", Metaheuristic,
		"SE with warm-start amendment for online scheduling under churn (internal/live)",
		openSE, restoreSE)
	Register("se-shard", Metaheuristic,
		"SE over weakly-coupled DAG regions in parallel, with boundary reconciliation",
		func(cfg Config, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
			return stepper(shard.NewEngine(g, sys, shard.Options{
				Shards:          cfg.Shards,
				ReconcileSweeps: cfg.ReconcileSweeps,
				Bias:            cfg.Bias,
				Y:               cfg.Y,
				PerturbAfter:    cfg.PerturbAfter,
				FullEval:        cfg.FullEval,
				Seed:            cfg.Seed,
				Initial:         cfg.Initial,
				MaxParallel:     cfg.Workers,
			}))
		},
		func(data []byte, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
			return stepper(shard.RestoreEngine(data, g, sys))
		})
	Register("ga", Metaheuristic,
		"genetic-algorithm baseline of Wang et al. (JPDC 1997)",
		func(cfg Config, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
			return stepper(ga.NewEngine(g, sys, ga.Options{
				PopulationSize: cfg.Population,
				FullEval:       cfg.FullEval,
				CrossoverRate:  cfg.Crossover,
				MutationRate:   cfg.Mutation,
				Elitism:        cfg.Elitism,
				Seed:           cfg.Seed,
				Workers:        cfg.Workers,
				Initial:        cfg.Initial,
			}))
		},
		func(data []byte, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
			return stepper(ga.RestoreEngine(data, g, sys))
		})
	Register("sa", Metaheuristic,
		"simulated annealing over the same move space as SE",
		func(cfg Config, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
			return stepper(sa.NewEngine(g, sys, sa.Options{
				InitialTemp:  cfg.InitialTemp,
				FullEval:     cfg.FullEval,
				Cooling:      cfg.Cooling,
				MovesPerTemp: cfg.MovesPerTemp,
				Seed:         cfg.Seed,
				Initial:      cfg.Initial,
			}))
		},
		func(data []byte, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
			return stepper(sa.RestoreEngine(data, g, sys))
		})
	Register("tabu", Metaheuristic,
		"tabu search over the same move space as SE",
		func(cfg Config, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
			return stepper(tabu.NewEngine(g, sys, tabu.Options{
				Tenure:       cfg.Tenure,
				FullEval:     cfg.FullEval,
				Neighborhood: cfg.Neighborhood,
				Seed:         cfg.Seed,
				Initial:      cfg.Initial,
			}))
		},
		func(data []byte, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
			return stepper(tabu.RestoreEngine(data, g, sys))
		})
}

// stepper converts an engine constructor's (engine, error) pair into the
// registry hooks' (Stepper, error), keeping a failed construction a nil
// interface rather than one wrapping a nil engine.
func stepper[E Stepper](e E, err error) (Stepper, error) {
	if err != nil {
		return nil, err
	}
	return e, nil
}

func openSE(cfg Config, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
	return stepper(core.NewEngine(g, sys, core.Options{
		Bias:         cfg.Bias,
		FullEval:     cfg.FullEval,
		Y:            cfg.Y,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		PerturbAfter: cfg.PerturbAfter,
		Initial:      cfg.Initial,
	}))
}

func restoreSE(data []byte, g *taskgraph.Graph, sys *platform.System) (Stepper, error) {
	return stepper(core.RestoreEngine(data, g, sys))
}
