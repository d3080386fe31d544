package core

// In-package tests covering engine internals that the black-box suite
// (package core_test) cannot reach: initial-solution construction,
// selection ordering, and the parallel pool's chunking edge cases.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func testEngine(t *testing.T, opts Options) (*Engine, *workload.Workload) {
	t.Helper()
	w := workload.MustGenerate(workload.Params{
		Tasks: 24, Machines: 5, Connectivity: 2.5, Heterogeneity: 6, CCR: 0.8, Seed: 31,
	})
	e, err := NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e, w
}

func TestInitialSolutionValid(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		e, w := testEngine(t, Options{Seed: seed})
		if err := schedule.Validate(e.cur, w.Graph, w.System); err != nil {
			t.Fatalf("seed %d: initial solution invalid: %v", seed, err)
		}
	}
}

func TestInitialSolutionNoMovesIsTopoOrder(t *testing.T) {
	e, w := testEngine(t, Options{Seed: 1, InitialMoves: NoInitialMoves})
	topo := w.Graph.TopoOrder()
	for i, gene := range e.cur {
		if gene.Task != topo[i] {
			t.Fatalf("gene %d: task %d, want deterministic topo order task %d", i, gene.Task, topo[i])
		}
	}
}

func TestInitialSolutionPerturbationMovesPositionsOnly(t *testing.T) {
	// §4.2: the perturbation moves subtasks between segments; machine
	// assignments stay as initially drawn. Two engines with the same seed
	// but different move counts must agree on every task's machine.
	a, _ := testEngine(t, Options{Seed: 5, InitialMoves: NoInitialMoves})
	b, _ := testEngine(t, Options{Seed: 5, InitialMoves: 40})
	am, bm := a.cur.Assignment(), b.cur.Assignment()
	for task := range am {
		if am[task] != bm[task] {
			t.Fatalf("task %d: machine changed by initial perturbation (%d → %d)", task, am[task], bm[task])
		}
	}
}

func TestSelectTasksOrderedByLevel(t *testing.T) {
	e, w := testEngine(t, Options{Seed: 3, Bias: -1}) // bias -1: select everyone
	e.eval.FinishInto(e.cur, e.finish)
	Goodness(e.goodness, e.opt, e.finish)
	e.selectTasks()
	if len(e.selected) != w.Graph.NumTasks() {
		t.Fatalf("bias -1 selected %d of %d tasks", len(e.selected), w.Graph.NumTasks())
	}
	lv := w.Graph.Levels()
	for i := 1; i < len(e.selected); i++ {
		a, b := e.selected[i-1], e.selected[i]
		if lv[a] > lv[b] {
			t.Fatalf("selection not level-ordered: task %d (level %d) before task %d (level %d)",
				a, lv[a], b, lv[b])
		}
		if lv[a] == lv[b] && a > b {
			t.Fatalf("tie not broken by task ID: %d before %d", a, b)
		}
	}
}

func TestSelectTasksExtremeBias(t *testing.T) {
	e, _ := testEngine(t, Options{Seed: 3, Bias: 2}) // g + 2 > 1 ≥ r: select none
	e.eval.FinishInto(e.cur, e.finish)
	Goodness(e.goodness, e.opt, e.finish)
	e.selectTasks()
	if len(e.selected) != 0 {
		t.Errorf("bias 2 selected %d tasks, want 0", len(e.selected))
	}
}

func TestAllocateKeepsSolutionValid(t *testing.T) {
	e, w := testEngine(t, Options{Seed: 7, Bias: -1, Y: 2})
	for iter := 0; iter < 15; iter++ {
		e.eval.FinishInto(e.cur, e.finish)
		Goodness(e.goodness, e.opt, e.finish)
		e.selectTasks()
		e.allocate()
		if err := schedule.Validate(e.cur, w.Graph, w.System); err != nil {
			t.Fatalf("iteration %d: allocation broke the string: %v", iter, err)
		}
	}
}

func TestAllocateRestrictsToTopYMachines(t *testing.T) {
	e, w := testEngine(t, Options{Seed: 11, Bias: -1, Y: 1})
	for iter := 0; iter < 5; iter++ {
		e.eval.FinishInto(e.cur, e.finish)
		Goodness(e.goodness, e.opt, e.finish)
		e.selectTasks()
		e.allocate()
	}
	// After several all-selected generations with Y=1, every task that was
	// ever relocated sits on its best-matching machine. Since bias -1
	// selects everyone every generation, all tasks must be there.
	assign := e.cur.Assignment()
	for task, m := range assign {
		if want := w.System.BestMachine(taskgraph.TaskID(task)); m != want {
			t.Errorf("task %d on machine %d, want best-matching %d (Y=1)", task, m, want)
		}
	}
}

func TestPoolBestMoveMatchesSerial(t *testing.T) {
	// All four candidate scans — serial and pooled, each on replaying and
	// on reference (full-pass) evaluators — must pick the identical
	// winning move.
	e, w := testEngine(t, Options{Seed: 13})
	deltaPool := newAllocPool(w.Graph, w.System, 3)
	var ref *schedule.DeltaEvaluator
	var fullPool *allocPool
	schedule.Reference(func() {
		ref = schedule.NewDeltaEvaluator(w.Graph, w.System)
		fullPool = newAllocPool(w.Graph, w.System, 3)
	})
	rng := rand.New(rand.NewSource(99))
	pos := make([]int, w.Graph.NumTasks())
	for trial := 0; trial < 50; trial++ {
		idx := rng.Intn(len(e.cur))
		e.cur.Positions(pos)
		lo, hi := schedule.ValidRange(w.Graph, e.cur, pos, idx)
		machines := w.System.TopMachines(e.cur[idx].Task, 3)

		ref.Pin(e.cur)
		want := ref.Scan(idx, lo, hi, machines)
		e.delta.Pin(e.cur)
		if got := e.delta.Scan(idx, lo, hi, machines); got != want {
			t.Fatalf("trial %d: serial %+v != delta %+v", trial, want, got)
		}
		for name, pool := range map[string]*allocPool{"full": fullPool, "delta": deltaPool} {
			if got := pool.bestMove(e.cur, idx, lo, hi, machines); got != want {
				t.Fatalf("trial %d: serial %+v != %s pool %+v", trial, want, name, got)
			}
		}
		// Walk the current solution forward so trials see varied strings.
		schedule.MoveInto(e.moveBuf, e.cur, idx, want.Q, machines[want.MI])
		copy(e.cur, e.moveBuf)
	}
}

func TestPoolMoreWorkersThanCandidates(t *testing.T) {
	// Chunking must handle pools larger than the candidate count.
	e, w := testEngine(t, Options{Seed: 17})
	pool := newAllocPool(w.Graph, w.System, 16)
	pos := make([]int, w.Graph.NumTasks())
	e.cur.Positions(pos)
	idx := 0
	lo, hi := schedule.ValidRange(w.Graph, e.cur, pos, idx)
	machines := w.System.TopMachines(e.cur[idx].Task, 1)
	got := pool.bestMove(e.cur, idx, lo, hi, machines)
	e.delta.Pin(e.cur)
	if want := e.delta.Scan(idx, lo, hi, machines); got != want {
		t.Errorf("tiny candidate set: pool %+v != serial %+v", got, want)
	}
}

func TestPerturbAfterKicksChangeCurrent(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 15, Machines: 3, Connectivity: 2, Heterogeneity: 4, CCR: 0.5, Seed: 8,
	})
	// Run long enough to stagnate and kick several times; the run must
	// stay valid and the best must never regress.
	e, err := NewEngine(w.Graph, w.System, Options{Seed: 8, PerturbAfter: 10})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	trace := make([]schedule.Progress, 400)
	for i := range trace {
		trace[i] = e.Step()
	}
	if err := schedule.Validate(e.Result().Best, w.Graph, w.System); err != nil {
		t.Fatalf("best invalid after kicks: %v", err)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Best > trace[i-1].Best+1e-9 {
			t.Fatalf("best-so-far regressed at iteration %d despite kicks", i)
		}
	}
	// The kick must actually disturb the current solution: current
	// makespan should rise above best at some point after stagnation.
	kicked := false
	for _, st := range trace {
		if st.Current > st.Best+1e-9 {
			kicked = true
			break
		}
	}
	if !kicked {
		t.Error("no perturbation visible in the trace")
	}
}

func TestPoolBuildsOnlyUsableWorkers(t *testing.T) {
	// A pool of more workers than half the largest scan always scans on
	// worker 0, so it is built at the smallest such size and runs exactly
	// like the serial engine, effort ledger included. The worker count
	// also arrives from snapshots, whose restore must stay cheap.
	e, w := testEngine(t, Options{Seed: 3, Workers: 10_000})
	if got, want := len(e.pool.workers), w.Graph.NumTasks()*w.System.NumMachines()/2+1; got != want {
		t.Fatalf("pool has %d workers, want %d", got, want)
	}
	data, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(data, w.Graph, w.System)
	if err != nil {
		t.Fatal(err)
	}
	if restored.opts.Workers != 10_000 || len(restored.pool.workers) != len(e.pool.workers) {
		t.Fatalf("restored Workers %d with %d pool workers", restored.opts.Workers, len(restored.pool.workers))
	}
	serial, _ := testEngine(t, Options{Seed: 3})
	for i := 0; i < 5; i++ {
		e.Step()
		serial.Step()
	}
	got, want := e.Result(), serial.Result()
	got.Elapsed, want.Elapsed = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("oversized pool %+v != serial %+v", got, want)
	}
}
