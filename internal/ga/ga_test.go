package ga_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/ga"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func smallWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 20, Machines: 4,
		Connectivity:  2,
		Heterogeneity: 6,
		CCR:           0.5,
		Seed:          42,
	})
}

// run steps a fresh GA engine gens generations and returns its result and
// the per-generation observations.
func run(t *testing.T, w *workload.Workload, opts ga.Options, gens int) (*schedule.Result, []schedule.Progress) {
	t.Helper()
	e, err := ga.NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	trace := make([]schedule.Progress, gens)
	for i := range trace {
		trace[i] = e.Step()
	}
	return e.Result(), trace
}

// drive runs the registered "ga" search under b through scheduler.Drive,
// the one budget loop.
func drive(t *testing.T, w *workload.Workload, b scheduler.Budget, opts ...scheduler.Option) *scheduler.Result {
	t.Helper()
	s, err := scheduler.Open("ga", w.Graph, w.System, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	res, err := scheduler.Drive(context.Background(), s, b)
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	return res
}

func TestRunReturnsValidSolution(t *testing.T) {
	w := smallWorkload()
	res, _ := run(t, w, ga.Options{Seed: 1}, 30)
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("GA returned invalid solution: %v", err)
	}
	if res.Iterations != 30 {
		t.Errorf("Iterations = %d, want 30", res.Iterations)
	}
	if res.Evaluations == 0 {
		t.Error("Evaluations = 0")
	}
}

func TestRunImproves(t *testing.T) {
	w := smallWorkload()
	res, trace := run(t, w, ga.Options{Seed: 1}, 60)
	first := trace[0].Current
	if res.Makespan >= first {
		t.Errorf("GA did not improve: best %v, first generation %v", res.Makespan, first)
	}
}

func TestRunRespectsLowerBound(t *testing.T) {
	w := smallWorkload()
	lb := schedule.LowerBound(w.Graph, w.System)
	res, _ := run(t, w, ga.Options{Seed: 3}, 50)
	if res.Makespan < lb-1e-9 {
		t.Errorf("best %v below lower bound %v", res.Makespan, lb)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best); got != res.Makespan {
		t.Errorf("reported best %v, re-evaluation %v", res.Makespan, got)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorkload()
	opts := ga.Options{Seed: 7}
	a, _ := run(t, w, opts, 25)
	b, _ := run(t, w, opts, 25)
	if a.Makespan != b.Makespan {
		t.Errorf("same seed, different best: %v vs %v", a.Makespan, b.Makespan)
	}
}

func TestRunParallelFitnessMatchesSerial(t *testing.T) {
	w := smallWorkload()
	a, _ := run(t, w, ga.Options{Seed: 7}, 25)
	b, _ := run(t, w, ga.Options{Seed: 7, Workers: 4}, 25)
	if a.Makespan != b.Makespan {
		t.Errorf("parallel fitness changed the search: %v vs %v", a.Makespan, b.Makespan)
	}
}

func TestElitismMonotone(t *testing.T) {
	w := smallWorkload()
	_, trace := run(t, w, ga.Options{Seed: 5}, 60)
	// With elitism ≥ 1 the per-generation best never regresses past the
	// global best, and the global best is monotone.
	for i := 1; i < len(trace); i++ {
		if trace[i].Best > trace[i-1].Best+1e-9 {
			t.Errorf("best-so-far increased at generation %d", i)
		}
	}
}

func TestInitialSeedChromosome(t *testing.T) {
	w := smallWorkload()
	// Seed with everything on machine 0 in topological order.
	initial := make(schedule.String, 20)
	for i, tk := range w.Graph.TopoOrder() {
		initial[i] = schedule.Gene{Task: tk, Machine: 0}
	}
	wantMs := schedule.NewEvaluator(w.Graph, w.System).Makespan(initial)
	_, trace := run(t, w, ga.Options{Seed: 1, Initial: initial}, 1)
	// Generation 0 contains the seed, so its best can be no worse than the
	// seed's cost.
	if trace[0].Current > wantMs {
		t.Errorf("generation 0 best %v worse than seed %v", trace[0].Current, wantMs)
	}
}

func TestOnGenerationStops(t *testing.T) {
	w := smallWorkload()
	calls := 0
	res := drive(t, w, scheduler.Budget{
		OnProgress: func(scheduler.Progress) bool {
			calls++
			return calls < 4
		},
	}, scheduler.WithSeed(1))
	if calls != 4 || res.Iterations != 4 {
		t.Errorf("calls = %d, generations = %d, want 4", calls, res.Iterations)
	}
}

func TestTimeBudgetStops(t *testing.T) {
	w := smallWorkload()
	start := time.Now()
	drive(t, w, scheduler.Budget{TimeBudget: 50 * time.Millisecond}, scheduler.WithSeed(1))
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("run took %v with a 50ms budget", elapsed)
	}
}

func TestNoImprovementStops(t *testing.T) {
	w := smallWorkload()
	res := drive(t, w, scheduler.Budget{NoImprovement: 8, MaxIterations: 100000}, scheduler.WithSeed(1))
	if res.Iterations >= 100000 {
		t.Error("NoImprovement did not stop the run")
	}
}

func TestOptionErrors(t *testing.T) {
	w := smallWorkload()
	engine := func(opts ga.Options) func() error {
		return func() error {
			_, err := ga.NewEngine(w.Graph, w.System, opts)
			return err
		}
	}
	cases := []struct {
		name string
		open func() error
		want string
	}{
		{"no stop", func() error {
			s, err := scheduler.Open("ga", w.Graph, w.System)
			if err == nil {
				_, err = scheduler.Drive(context.Background(), s, scheduler.Budget{})
			}
			return err
		}, "stopping criterion"},
		{"tiny population", engine(ga.Options{PopulationSize: 1}), "PopulationSize"},
		{"bad crossover", engine(ga.Options{CrossoverRate: 1.5}), "CrossoverRate"},
		{"bad mutation", engine(ga.Options{MutationRate: -0.5}), "MutationRate"},
		{"bad initial", engine(ga.Options{Initial: schedule.String{{Task: 0, Machine: 0}}}), "Initial"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.open()
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want mentioning %q", err, tc.want)
			}
		})
	}
}

func TestEveryGenerationSolutionsValid(t *testing.T) {
	// Indirect operator check: run many generations on a communication-
	// heavy workload; the returned best must always be a valid string.
	w := workload.MustGenerate(workload.Params{
		Tasks: 30, Machines: 5, Connectivity: 4, Heterogeneity: 10, CCR: 1, Seed: 13,
	})
	for seed := int64(1); seed <= 5; seed++ {
		res, _ := run(t, w, ga.Options{Seed: seed}, 40)
		if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
			t.Fatalf("seed %d: invalid solution: %v", seed, err)
		}
	}
}
