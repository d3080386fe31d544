package tabu

import (
	"testing"

	"repro/internal/schedule"
	"repro/internal/workload"
)

// TestTenureBlocksImmediateRevisit pins the fixed tenure: a task moved at
// iteration i stays tabu through iteration i+max(n/4, 2), and moves again
// within that window only by aspiration, when the move beats the global
// best. The run stays valid throughout.
func TestTenureBlocksImmediateRevisit(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 20, Machines: 4, Connectivity: 2, Heterogeneity: 6, CCR: 0.5, Seed: 42,
	})
	e, err := NewEngine(w.Graph, w.System, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := w.Graph.NumTasks()
	if want := max(n/4, 2); e.tenure != want {
		t.Fatalf("tenure = %d, want max(n/4, 2) = %d", e.tenure, want)
	}
	lastMoved := make([]int, n)
	for i := range lastMoved {
		lastMoved[i] = -1
	}
	moves, revisits := 0, 0
	for iter := 0; iter < 100; iter++ {
		prevBest := e.bestMs
		e.Step()
		for task, until := range e.tabuUntil {
			if until != iter+1+e.tenure {
				continue // not moved this iteration
			}
			moves++
			if last := lastMoved[task]; last >= 0 && iter-last <= e.tenure {
				if !(e.curMs < prevBest) {
					t.Fatalf("iteration %d: task %d moved again %d iterations after its last move without beating the best (%v >= %v)",
						iter, task, iter-last, e.curMs, prevBest)
				}
			} else if last >= 0 {
				revisits++ // a revisit once the tenure expired
			}
			lastMoved[task] = iter
		}
	}
	if moves == 0 || revisits == 0 {
		t.Fatalf("moves %d, revisits after the tenure %d: the test must exercise both", moves, revisits)
	}
	if err := schedule.Validate(e.Result().Best, w.Graph, w.System); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}
