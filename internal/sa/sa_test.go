package sa_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/sa"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func smallWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 20, Machines: 4, Connectivity: 2, Heterogeneity: 6, CCR: 0.5, Seed: 42,
	})
}

// walk steps a fresh SA engine until it has proposed at least moves
// moves (whole temperature blocks) and returns the engine.
func walk(t *testing.T, w *workload.Workload, opts sa.Options, moves int) *sa.Engine {
	t.Helper()
	e, err := sa.NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for e.Moves() < moves {
		e.Step()
	}
	return e
}

// drive runs the registered "sa" search under b through scheduler.Drive,
// the one budget loop.
func drive(t *testing.T, w *workload.Workload, b scheduler.Budget, opts ...scheduler.Option) *scheduler.Result {
	t.Helper()
	s, err := scheduler.Open("sa", w.Graph, w.System, opts...)
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
	e := walk(t, w, sa.Options{Seed: 1}, 2000)
	if err := schedule.Validate(e.Result().Best, w.Graph, w.System); err != nil {
		t.Fatalf("SA returned invalid solution: %v", err)
	}
	if e.Moves() < 2000 {
		t.Errorf("Moves = %d, want >= 2000", e.Moves())
	}
	if e.Accepted() == 0 {
		t.Error("no moves accepted")
	}
}

func TestRunImproves(t *testing.T) {
	w := smallWorkload()
	initial := make(schedule.String, 20)
	for i, tk := range w.Graph.TopoOrder() {
		initial[i] = schedule.Gene{Task: tk, Machine: 0}
	}
	initMs := schedule.NewEvaluator(w.Graph, w.System).Makespan(initial)
	res := walk(t, w, sa.Options{Seed: 1, Initial: initial}, 5000).Result()
	if res.Makespan >= initMs {
		t.Errorf("SA did not improve: best %v, initial %v", res.Makespan, initMs)
	}
}

func TestRunRespectsLowerBound(t *testing.T) {
	w := smallWorkload()
	lb := schedule.LowerBound(w.Graph, w.System)
	res := walk(t, w, sa.Options{Seed: 2}, 3000).Result()
	if res.Makespan < lb-1e-9 {
		t.Errorf("best %v below lower bound %v", res.Makespan, lb)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best); got != res.Makespan {
		t.Errorf("reported %v, re-evaluation %v", res.Makespan, got)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorkload()
	opts := sa.Options{Seed: 9}
	a := walk(t, w, opts, 1500)
	b := walk(t, w, opts, 1500)
	if a.Result().Makespan != b.Result().Makespan || a.Accepted() != b.Accepted() {
		t.Errorf("same seed diverged: best %v/%v accepted %d/%d",
			a.Result().Makespan, b.Result().Makespan, a.Accepted(), b.Accepted())
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

// TestNoImprovementStops checks SA's stagnation scaling: Budget
// NoImprovement counts temperature blocks, which SA converts to proposed
// moves, so a stalled walk has gone that many whole blocks without a new
// best.
func TestNoImprovementStops(t *testing.T) {
	w := smallWorkload()
	const noImprove = 25
	var trace []scheduler.Progress
	res := drive(t, w, scheduler.Budget{
		NoImprovement: noImprove,
		MaxIterations: 100000,
		OnProgress:    func(p scheduler.Progress) bool { trace = append(trace, p); return true },
	}, scheduler.WithSeed(1))
	if res.Iterations >= 100000 {
		t.Fatal("NoImprovement did not stop the walk")
	}
	if len(trace) < noImprove {
		t.Fatalf("walk stalled after %d blocks, before %d blocks could pass", len(trace), noImprove)
	}
	final := trace[len(trace)-1].Best
	for _, p := range trace[len(trace)-noImprove:] {
		if p.Best != final {
			t.Fatalf("best changed within the final %d blocks: %v then %v", noImprove, p.Best, final)
		}
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
			s, err := scheduler.Open("sa", w.Graph, w.System)
			if err == nil {
				_, err = scheduler.Drive(context.Background(), s, scheduler.Budget{})
			}
			return err
		}, "stopping criterion"},
		{"bad cooling", func() error {
			_, err := sa.NewEngine(w.Graph, w.System, sa.Options{Cooling: 1.5})
			return err
		}, "Cooling"},
		{"bad initial", func() error {
			_, err := sa.NewEngine(w.Graph, w.System, sa.Options{Initial: schedule.String{{Task: 0, Machine: 0}}})
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

func TestOnBlockObservesAndStops(t *testing.T) {
	w := smallWorkload()
	var blocks int
	res := drive(t, w, scheduler.Budget{
		OnProgress: func(p scheduler.Progress) bool {
			if p.Iteration != blocks {
				t.Errorf("Iteration = %d, want %d", p.Iteration, blocks)
			}
			if p.Best <= 0 || p.Current <= 0 {
				t.Errorf("observation not populated: %+v", p)
			}
			blocks++
			return blocks < 4
		},
	}, scheduler.WithSeed(1))
	if blocks != 4 {
		t.Errorf("OnProgress called %d times, want 4", blocks)
	}
	if res.Iterations != 4 {
		t.Errorf("Iterations = %d, want 4", res.Iterations)
	}
	if res.Evaluations == 0 {
		t.Error("Evaluations = 0, want > 0")
	}
}

func TestOnBlockDoesNotPerturbSearch(t *testing.T) {
	w := smallWorkload()
	plain := drive(t, w, scheduler.Budget{MaxIterations: 10}, scheduler.WithSeed(5))
	observed := drive(t, w, scheduler.Budget{
		MaxIterations: 10,
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
