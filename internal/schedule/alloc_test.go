package schedule_test

import (
	"math/rand"
	"testing"

	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// Allocation pins for the incremental engine's hot path. Every query the
// Step loops issue per iteration — bounded replays, commits, re-pins —
// must stay allocation-free in steady state: the evaluator owns all its
// scratch and only grows it at construction. These tests are regression
// tripwires; if a future change reintroduces a per-query make/append
// growth, they fail with the measured count.

// allocWorkload is a mid-sized deterministic workload so the replay path
// exercises multiple checkpoints.
func allocWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 60, Machines: 8, Connectivity: 2.5, Heterogeneity: 5, CCR: 0.8, Seed: 7,
	})
}

func TestMoveMakespanAllocFree(t *testing.T) {
	w := allocWorkload()
	rng := rand.New(rand.NewSource(7))
	s := randomSolution(w, rng)
	d := schedule.NewDeltaEvaluator(w.Graph, w.System)
	d.Pin(s)
	pos := make([]int, len(s))
	s.Positions(pos)

	// Warm once: the first queries may fault in lazily-sized scratch.
	for i := 0; i < 10; i++ {
		idx := rng.Intn(len(s))
		lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
		q := lo + rng.Intn(hi-lo+1)
		m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
		d.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
	}

	idx := rng.Intn(len(s))
	lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
	q := lo + rng.Intn(hi-lo+1)
	m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
	if allocs := testing.AllocsPerRun(200, func() {
		d.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
	}); allocs != 0 {
		t.Errorf("MoveMakespan allocates %.1f times per query, want 0", allocs)
	}
}

func TestCommitMoveAllocFree(t *testing.T) {
	w := allocWorkload()
	rng := rand.New(rand.NewSource(8))
	s := randomSolution(w, rng)
	d := schedule.NewDeltaEvaluator(w.Graph, w.System)
	d.Pin(s)
	pos := make([]int, len(s))
	buf := make(schedule.String, len(s))

	// Each run replays one valid move and commits it — the SA/tabu accept
	// path. The string bookkeeping mirrors those engines' own scratch use,
	// so the whole accepted-move cycle must be allocation-free.
	if allocs := testing.AllocsPerRun(200, func() {
		s.Positions(pos)
		idx := rng.Intn(len(s))
		lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
		q := lo + rng.Intn(hi-lo+1)
		m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
		d.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
		d.CommitMove(idx, q, m)
		schedule.MoveInto(buf, s, idx, q, m)
		copy(s, buf)
	}); allocs != 0 {
		t.Errorf("MoveMakespan+CommitMove allocates %.1f times per accepted move, want 0", allocs)
	}
}

func TestRePinAllocFree(t *testing.T) {
	w := allocWorkload()
	rng := rand.New(rand.NewSource(9))
	s := randomSolution(w, rng)
	d := schedule.NewDeltaEvaluator(w.Graph, w.System)
	d.Pin(s)

	if allocs := testing.AllocsPerRun(100, func() {
		d.Pin(s)
	}); allocs != 0 {
		t.Errorf("steady-state Pin allocates %.1f times, want 0", allocs)
	}
}

func TestScanAllocFree(t *testing.T) {
	w := allocWorkload()
	rng := rand.New(rand.NewSource(10))
	s := randomSolution(w, rng)
	d := schedule.NewDeltaEvaluator(w.Graph, w.System)
	pos := make([]int, len(s))
	buf := make(schedule.String, len(s))

	// SE's allocation step: pin, scan one gene on its best machines, apply
	// the winner. The scan keeps its run state in the evaluator.
	if allocs := testing.AllocsPerRun(200, func() {
		s.Positions(pos)
		idx := rng.Intn(len(s))
		lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
		machines := w.System.TopMachines(s[idx].Task, 0)
		d.Pin(s)
		mv := d.Scan(idx, lo, hi, machines)
		schedule.MoveInto(buf, s, idx, mv.Q, machines[mv.MI])
		copy(s, buf)
	}); allocs != 0 {
		t.Errorf("Pin+Scan allocates %.1f times per selected task, want 0", allocs)
	}
}
