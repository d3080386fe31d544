package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func taskID(i int) taskgraph.TaskID { return taskgraph.TaskID(i) }

func smallWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 20, Machines: 4,
		Connectivity:  2,
		Heterogeneity: 6,
		CCR:           0.5,
		Seed:          42,
	})
}

// run steps a fresh SE engine iters generations and returns its result and
// the per-generation observations.
func run(t *testing.T, w *workload.Workload, opts core.Options, iters int) (*schedule.Result, []schedule.Progress) {
	t.Helper()
	e, err := core.NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	trace := make([]schedule.Progress, iters)
	for i := range trace {
		trace[i] = e.Step()
	}
	return e.Result(), trace
}

// drive runs the registered "se" search under b through scheduler.Drive,
// the one budget loop.
func drive(t *testing.T, w *workload.Workload, b scheduler.Budget, opts ...scheduler.Option) *scheduler.Result {
	t.Helper()
	s, err := scheduler.Open("se", w.Graph, w.System, opts...)
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
	res, _ := run(t, w, core.Options{Seed: 1}, 50)
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("SE returned invalid solution: %v", err)
	}
	if res.Iterations != 50 {
		t.Errorf("Iterations = %d, want 50", res.Iterations)
	}
	if res.Evaluations == 0 {
		t.Error("Evaluations = 0")
	}
}

func TestRunImprovesOverInitial(t *testing.T) {
	w := smallWorkload()
	e := schedule.NewEvaluator(w.Graph, w.System)

	// A deliberately poor but valid initial solution: everything on
	// machine 0 in deterministic topological order.
	initial := make(schedule.String, 20)
	for i, tk := range w.Graph.TopoOrder() {
		initial[i] = schedule.Gene{Task: tk, Machine: 0}
	}
	initMs := e.Makespan(initial)

	res, _ := run(t, w, core.Options{Seed: 1, Initial: initial}, 100)
	if res.Makespan >= initMs {
		t.Errorf("SE did not improve: best %v, initial %v", res.Makespan, initMs)
	}
}

func TestRunRespectsLowerBound(t *testing.T) {
	w := smallWorkload()
	lb := schedule.LowerBound(w.Graph, w.System)
	res, _ := run(t, w, core.Options{Seed: 3}, 200)
	if res.Makespan < lb-1e-9 {
		t.Errorf("best makespan %v below lower bound %v", res.Makespan, lb)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best); got != res.Makespan {
		t.Errorf("reported best %v but re-evaluation gives %v", res.Makespan, got)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorkload()
	opts := core.Options{Seed: 7, Y: 2, Bias: -0.1}
	a, _ := run(t, w, opts, 60)
	b, _ := run(t, w, opts, 60)
	if a.Makespan != b.Makespan {
		t.Errorf("same seed, different best: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatalf("same seed, different solutions at gene %d", i)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	w := smallWorkload()
	a, _ := run(t, w, core.Options{Seed: 1}, 30)
	b, _ := run(t, w, core.Options{Seed: 2}, 30)
	same := true
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds walked identical search paths")
	}
}

// TestRunParallelMatchesSerial checks the documented guarantee that the
// worker pool changes wall-clock time only: same seed → bit-identical
// solutions.
func TestRunParallelMatchesSerial(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 30, Machines: 6, Connectivity: 3, Heterogeneity: 8, CCR: 1, Seed: 9,
	})
	serial, _ := run(t, w, core.Options{Seed: 5}, 40)
	parallel, _ := run(t, w, core.Options{Seed: 5, Workers: 4}, 40)
	if serial.Makespan != parallel.Makespan {
		t.Errorf("serial best %v != parallel best %v", serial.Makespan, parallel.Makespan)
	}
	for i := range serial.Best {
		if serial.Best[i] != parallel.Best[i] {
			t.Fatalf("solutions diverge at gene %d: %v vs %v", i, serial.Best[i], parallel.Best[i])
		}
	}
}

func TestTraceRecording(t *testing.T) {
	w := smallWorkload()
	s, err := scheduler.Open("se", w.Graph, w.System, scheduler.WithSeed(1))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var trace []scheduler.Progress
	if _, err := scheduler.Drive(context.Background(), s, scheduler.Budget{
		MaxIterations: 25,
		OnProgress:    func(p scheduler.Progress) bool { trace = append(trace, p); return true },
	}); err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if len(trace) != 25 {
		t.Fatalf("Trace length = %d, want 25", len(trace))
	}
	for i, st := range trace {
		if st.Iteration != i {
			t.Errorf("Trace[%d].Iteration = %d", i, st.Iteration)
		}
		if st.Selected < 0 || st.Selected > 20 {
			t.Errorf("Trace[%d].Selected = %d out of range", i, st.Selected)
		}
		if st.Best > st.Current+1e-9 && i == 0 {
			t.Errorf("iteration 0: best %v > current %v", st.Best, st.Current)
		}
	}
	// Best-so-far must be monotone non-increasing.
	for i := 1; i < len(trace); i++ {
		if trace[i].Best > trace[i-1].Best+1e-9 {
			t.Errorf("best-so-far increased at iteration %d", i)
		}
	}
}

func TestBiasControlsSelectionSize(t *testing.T) {
	w := smallWorkload()
	mean := func(bias float64) float64 {
		_, trace := run(t, w, core.Options{Seed: 11, Bias: bias}, 40)
		total := 0
		for _, st := range trace {
			total += st.Selected
		}
		return float64(total) / float64(len(trace))
	}
	negative := mean(-0.3) // paper: negative bias → more selected
	positive := mean(0.3)  // positive bias → fewer selected
	if negative <= positive {
		t.Errorf("mean selected: bias -0.3 → %.1f, bias +0.3 → %.1f; want more with negative bias", negative, positive)
	}
}

func TestOnIterationStopsRun(t *testing.T) {
	w := smallWorkload()
	calls := 0
	res := drive(t, w, scheduler.Budget{
		OnProgress: func(scheduler.Progress) bool {
			calls++
			return calls < 5
		},
	}, scheduler.WithSeed(1))
	if calls != 5 {
		t.Errorf("OnProgress called %d times, want 5", calls)
	}
	if res.Iterations != 5 {
		t.Errorf("Iterations = %d, want 5", res.Iterations)
	}
}

func TestTimeBudgetStopsRun(t *testing.T) {
	w := smallWorkload()
	budget := 50 * time.Millisecond
	start := time.Now()
	drive(t, w, scheduler.Budget{TimeBudget: budget}, scheduler.WithSeed(1))
	if elapsed := time.Since(start); elapsed > 20*budget {
		t.Errorf("run took %v with a %v budget", elapsed, budget)
	}
}

func TestNoImprovementStopsRun(t *testing.T) {
	w := smallWorkload()
	res := drive(t, w, scheduler.Budget{NoImprovement: 10, MaxIterations: 100000}, scheduler.WithSeed(1))
	if res.Iterations >= 100000 {
		t.Error("NoImprovement did not stop the run")
	}
}

func TestYRestrictsMachines(t *testing.T) {
	w := smallWorkload()
	res, _ := run(t, w, core.Options{Seed: 2, Y: 1, InitialMoves: core.NoInitialMoves}, 60)
	// With Y=1 every relocated task lands on its best-matching machine;
	// over enough iterations nearly all tasks end up there. At minimum the
	// result must stay valid and the run must complete.
	if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
		t.Fatalf("invalid solution with Y=1: %v", err)
	}
}

func TestInitialSolutionUsed(t *testing.T) {
	w := smallWorkload()
	initial := make(schedule.String, 20)
	for i, tk := range w.Graph.TopoOrder() {
		initial[i] = schedule.Gene{Task: tk, Machine: 1}
	}
	// bias 2: select nothing
	_, trace := run(t, w, core.Options{Seed: 1, Initial: initial, Bias: 2}, 1)
	wantMs := schedule.NewEvaluator(w.Graph, w.System).Makespan(initial)
	if trace[0].Current != wantMs {
		t.Errorf("iteration 0 makespan = %v, want initial's %v", trace[0].Current, wantMs)
	}
	if trace[0].Selected != 0 {
		t.Errorf("bias 2 selected %d tasks, want 0", trace[0].Selected)
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
			s, err := scheduler.Open("se", w.Graph, w.System)
			if err == nil {
				_, err = scheduler.Drive(context.Background(), s, scheduler.Budget{})
			}
			return err
		}, "stopping criterion"},
		{"negative Y", func() error {
			_, err := core.NewEngine(w.Graph, w.System, core.Options{Y: -1})
			return err
		}, "Y"},
		{"bad initial", func() error {
			_, err := core.NewEngine(w.Graph, w.System, core.Options{Initial: schedule.String{{Task: 0, Machine: 0}}})
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

func TestMismatchedGraphSystem(t *testing.T) {
	w := smallWorkload()
	other := workload.Figure1()
	if _, err := core.NewEngine(w.Graph, other.System, core.Options{}); err == nil {
		t.Fatal("NewEngine accepted mismatched graph and system")
	}
}

func TestFigure1SEFindsGoodSchedule(t *testing.T) {
	w := workload.Figure1()
	res, _ := run(t, w, core.Options{Seed: 1, Bias: -0.2}, 200) // small problem: thorough search
	// The Figure-2 example solution scores 3123; SE must at least match a
	// solution the paper presents as merely "valid".
	if res.Makespan > 3123 {
		t.Errorf("SE best %v worse than the paper's example solution 3123", res.Makespan)
	}
}

func TestSingleMachineWorkload(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 10, Machines: 1, Connectivity: 1.5, Heterogeneity: 1, CCR: 0.5, Seed: 4,
	})
	res, _ := run(t, w, core.Options{Seed: 1}, 20)
	// One machine: makespan is the serial sum regardless of order.
	sum := 0.0
	for tk := 0; tk < 10; tk++ {
		sum += w.System.MeanExecTime(taskID(tk))
	}
	if diff := res.Makespan - sum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("single-machine makespan = %v, want serial sum %v", res.Makespan, sum)
	}
}
