package tabu_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/tabu"
	"repro/internal/workload"
)

func smallWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 20, Machines: 4, Connectivity: 2, Heterogeneity: 6, CCR: 0.5, Seed: 42,
	})
}

// run steps a fresh tabu engine iters iterations and returns its result.
func run(t *testing.T, w *workload.Workload, opts tabu.Options, iters int) *schedule.Result {
	t.Helper()
	e, err := tabu.NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := 0; i < iters; i++ {
		e.Step()
	}
	return e.Result()
}

// drive runs the registered "tabu" search under b through scheduler.Drive,
// the one budget loop.
func drive(t *testing.T, w *workload.Workload, b scheduler.Budget, opts ...scheduler.Option) *scheduler.Result {
	t.Helper()
	s, err := scheduler.Open("tabu", w.Graph, w.System, opts...)
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
	res := run(t, w, tabu.Options{Seed: 1}, 300)
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("tabu returned invalid solution: %v", err)
	}
	if res.Iterations != 300 {
		t.Errorf("Iterations = %d, want 300", res.Iterations)
	}
}

func TestRunImproves(t *testing.T) {
	w := smallWorkload()
	initial := make(schedule.String, 20)
	for i, tk := range w.Graph.TopoOrder() {
		initial[i] = schedule.Gene{Task: tk, Machine: 0}
	}
	initMs := schedule.NewEvaluator(w.Graph, w.System).Makespan(initial)
	res := run(t, w, tabu.Options{Seed: 1, Initial: initial}, 400)
	if res.Makespan >= initMs {
		t.Errorf("tabu did not improve: best %v, initial %v", res.Makespan, initMs)
	}
}

func TestRunRespectsLowerBound(t *testing.T) {
	w := smallWorkload()
	lb := schedule.LowerBound(w.Graph, w.System)
	res := run(t, w, tabu.Options{Seed: 2}, 200)
	if res.Makespan < lb-1e-9 {
		t.Errorf("best %v below lower bound %v", res.Makespan, lb)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best); got != res.Makespan {
		t.Errorf("reported %v, re-evaluation %v", res.Makespan, got)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorkload()
	opts := tabu.Options{Seed: 9}
	a := run(t, w, opts, 150)
	b := run(t, w, opts, 150)
	if a.Makespan != b.Makespan {
		t.Errorf("same seed diverged: %v vs %v", a.Makespan, b.Makespan)
	}
}

func TestTimeBudgetStops(t *testing.T) {
	w := smallWorkload()
	start := time.Now()
	drive(t, w, scheduler.Budget{TimeBudget: 50 * time.Millisecond}, scheduler.WithSeed(1))
	if time.Since(start) > time.Second {
		t.Error("TimeBudget overshot grossly")
	}
}

func TestNoImprovementStops(t *testing.T) {
	w := smallWorkload()
	res := drive(t, w, scheduler.Budget{NoImprovement: 50, MaxIterations: 100000}, scheduler.WithSeed(1))
	if res.Iterations == 0 || res.Iterations >= 100000 {
		t.Errorf("Iterations = %d, want a stagnation stop", res.Iterations)
	}
}

func TestOptionErrors(t *testing.T) {
	w := smallWorkload()
	cases := []struct {
		name string
		open func() error
		want string
	}{
		{"no stop", func() error {
			s, err := scheduler.Open("tabu", w.Graph, w.System)
			if err == nil {
				_, err = scheduler.Drive(context.Background(), s, scheduler.Budget{})
			}
			return err
		}, "stopping criterion"},
		{"bad initial", func() error {
			_, err := tabu.NewEngine(w.Graph, w.System, tabu.Options{Initial: schedule.String{{Task: 0, Machine: 0}}})
			return err
		}, "Initial"},
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

func TestOnIterationObservesAndStops(t *testing.T) {
	w := smallWorkload()
	var calls int
	res := drive(t, w, scheduler.Budget{
		OnProgress: func(p scheduler.Progress) bool {
			if p.Iteration != calls {
				t.Errorf("Iteration = %d, want %d", p.Iteration, calls)
			}
			if p.Best <= 0 {
				t.Errorf("observation not populated: %+v", p)
			}
			calls++
			return calls < 6
		},
	}, scheduler.WithSeed(1))
	if calls != 6 {
		t.Errorf("OnProgress called %d times, want 6", calls)
	}
	if res.Iterations != 6 {
		t.Errorf("Iterations = %d, want 6", res.Iterations)
	}
	if res.Evaluations == 0 {
		t.Error("Evaluations = 0, want > 0")
	}
}

func TestOnIterationDoesNotPerturbSearch(t *testing.T) {
	w := smallWorkload()
	plain := drive(t, w, scheduler.Budget{MaxIterations: 40}, scheduler.WithSeed(5))
	observed := drive(t, w, scheduler.Budget{
		MaxIterations: 40,
		OnProgress:    func(scheduler.Progress) bool { return true },
	}, scheduler.WithSeed(5))
	if plain.Makespan != observed.Makespan {
		t.Errorf("observer changed the search: %v vs %v", plain.Makespan, observed.Makespan)
	}
	for i := range plain.Best {
		if plain.Best[i] != observed.Best[i] {
			t.Fatalf("observer changed the best string at gene %d", i)
		}
	}
}
