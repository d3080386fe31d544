package scheduler_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/heuristics"
	"repro/internal/sa"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/shard"
	"repro/internal/tabu"
	"repro/internal/workload"
)

// The equivalence guard: for a fixed seed and workload, every registered
// algorithm opened and driven through the registry (Open + Drive) must
// return the byte-identical best string and makespan its package's engine
// returns when built directly with the same configuration and stepped by
// hand (or its constructor returns). The registry is plumbing, not a fork
// of the algorithms.

func equivalenceWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 30, Machines: 6, Connectivity: 2.5, Heterogeneity: 8, CCR: 0.5, Seed: 42,
	})
}

// mustDrive opens name on the equivalence workload and drives it through
// the registry's budget loop.
func mustDrive(t *testing.T, name string, b scheduler.Budget, opts ...scheduler.Option) *scheduler.Result {
	t.Helper()
	w := equivalenceWorkload()
	s, err := scheduler.Open(name, w.Graph, w.System, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", name, err)
	}
	res, err := scheduler.Drive(context.Background(), s, b)
	if err != nil {
		t.Fatalf("Drive(%s): %v", name, err)
	}
	return res
}

// handStepped steps a directly built engine n times and returns its
// result — the reference the registry must reproduce.
func handStepped[E scheduler.Stepper](t *testing.T, e E, err error, n int) *scheduler.Result {
	t.Helper()
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := 0; i < n; i++ {
		e.Step()
	}
	return e.Result()
}

func assertSame(t *testing.T, name string, gotBest schedule.String, gotMs float64, wantBest schedule.String, wantMs float64) {
	t.Helper()
	if gotMs != wantMs {
		t.Errorf("%s: wrapped makespan %v != direct %v", name, gotMs, wantMs)
	}
	if len(gotBest) != len(wantBest) {
		t.Fatalf("%s: wrapped best has %d genes, direct %d", name, len(gotBest), len(wantBest))
	}
	for i := range gotBest {
		if gotBest[i] != wantBest[i] {
			t.Fatalf("%s: best strings differ at gene %d: %v vs %v", name, i, gotBest[i], wantBest[i])
		}
	}
}

func TestSEEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	e, err := core.NewEngine(w.Graph, w.System, core.Options{Bias: -0.1, Y: 3, Seed: 9})
	direct := handStepped(t, e, err, 60)
	res := mustDrive(t, "se", scheduler.Budget{MaxIterations: 60},
		scheduler.WithBias(-0.1), scheduler.WithY(3), scheduler.WithSeed(9))
	assertSame(t, "se", res.Best, res.Makespan, direct.Best, direct.Makespan)
	if res.Iterations != direct.Iterations || res.Evaluations != direct.Evaluations {
		t.Errorf("se: iterations/evaluations %d/%d != direct %d/%d",
			res.Iterations, res.Evaluations, direct.Iterations, direct.Evaluations)
	}
}

func TestSEEquivalenceWithObservers(t *testing.T) {
	// Progress callbacks and observer taps must not perturb the search.
	w := equivalenceWorkload()
	e, err := core.NewEngine(w.Graph, w.System, core.Options{Y: 3, Seed: 9})
	direct := handStepped(t, e, err, 40)
	var calls, taps int
	res := mustDrive(t, "se", scheduler.Budget{
		MaxIterations: 40,
		OnProgress:    func(scheduler.Progress) bool { calls++; return true },
	}, scheduler.WithY(3), scheduler.WithSeed(9), scheduler.WithObserver(func(scheduler.Progress) { taps++ }))
	assertSame(t, "se+observers", res.Best, res.Makespan, direct.Best, direct.Makespan)
	if calls != direct.Iterations || taps != direct.Iterations {
		t.Errorf("progress calls = %d, observer taps = %d, want one per iteration (%d)", calls, taps, direct.Iterations)
	}
}

func TestSEShardEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	e, err := shard.NewEngine(w.Graph, w.System, shard.Options{Shards: 3, Bias: -0.1, Y: 3, Seed: 9})
	direct := handStepped(t, e, err, 40)
	res := mustDrive(t, "se-shard", scheduler.Budget{MaxIterations: 40},
		scheduler.WithShards(3), scheduler.WithBias(-0.1), scheduler.WithY(3), scheduler.WithSeed(9))
	assertSame(t, "se-shard", res.Best, res.Makespan, direct.Best, direct.Makespan)
	if res.Iterations != direct.Iterations || res.Evaluations != direct.Evaluations {
		t.Errorf("se-shard: iterations/evaluations %d/%d != direct %d/%d",
			res.Iterations, res.Evaluations, direct.Iterations, direct.Evaluations)
	}
}

func TestSEShardSingleShardMatchesSerialSE(t *testing.T) {
	// The registry-level differential guard: se-shard with one shard must
	// be bit-identical to se for any shared configuration.
	for _, seed := range []int64{3, 21} {
		serial := mustDrive(t, "se", scheduler.Budget{MaxIterations: 50},
			scheduler.WithBias(-0.1), scheduler.WithY(4), scheduler.WithSeed(seed))
		sharded := mustDrive(t, "se-shard", scheduler.Budget{MaxIterations: 50},
			scheduler.WithShards(1), scheduler.WithBias(-0.1), scheduler.WithY(4), scheduler.WithSeed(seed))
		assertSame(t, "se-shard/1", sharded.Best, sharded.Makespan, serial.Best, serial.Makespan)
		if sharded.Iterations != serial.Iterations || sharded.Evaluations != serial.Evaluations ||
			sharded.DeltaEvaluations != serial.DeltaEvaluations || sharded.GenesEvaluated != serial.GenesEvaluated {
			t.Errorf("seed %d: single-shard ledger differs from serial SE", seed)
		}
	}
}

func TestGAEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	e, err := ga.NewEngine(w.Graph, w.System, ga.Options{
		PopulationSize: 60, CrossoverRate: 0.4, MutationRate: 0.05, Seed: 9,
	})
	direct := handStepped(t, e, err, 30)
	res := mustDrive(t, "ga", scheduler.Budget{MaxIterations: 30},
		scheduler.WithPopulation(60), scheduler.WithCrossover(0.4),
		scheduler.WithMutation(0.05), scheduler.WithSeed(9))
	assertSame(t, "ga", res.Best, res.Makespan, direct.Best, direct.Makespan)
	if res.Iterations != direct.Iterations {
		t.Errorf("ga: iterations %d != direct generations %d", res.Iterations, direct.Iterations)
	}
}

func TestSAEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	e, err := sa.NewEngine(w.Graph, w.System, sa.Options{Seed: 9})
	direct := handStepped(t, e, err, 50)
	res := mustDrive(t, "sa", scheduler.Budget{MaxIterations: 50}, scheduler.WithSeed(9))
	assertSame(t, "sa", res.Best, res.Makespan, direct.Best, direct.Makespan)
}

func TestTabuEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	e, err := tabu.NewEngine(w.Graph, w.System, tabu.Options{Seed: 9})
	direct := handStepped(t, e, err, 50)
	res := mustDrive(t, "tabu", scheduler.Budget{MaxIterations: 50}, scheduler.WithSeed(9))
	assertSame(t, "tabu", res.Best, res.Makespan, direct.Best, direct.Makespan)
}

func TestConstructiveEquivalence(t *testing.T) {
	w := equivalenceWorkload()
	direct := map[string]heuristics.Result{
		"heft":      heuristics.HEFT(w.Graph, w.System),
		"cpop":      heuristics.CPOP(w.Graph, w.System),
		"minmin":    heuristics.MinMin(w.Graph, w.System),
		"maxmin":    heuristics.MaxMin(w.Graph, w.System),
		"sufferage": heuristics.Sufferage(w.Graph, w.System),
		"mct":       heuristics.MCT(w.Graph, w.System),
		"random":    heuristics.Random(w.Graph, w.System, 9),
	}
	for name, want := range direct {
		res := mustDrive(t, name, scheduler.Budget{}, scheduler.WithSeed(9))
		assertSame(t, name, res.Best, res.Makespan, want.Solution, want.Makespan)
	}
}
