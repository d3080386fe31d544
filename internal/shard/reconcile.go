package shard

import (
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// reconciler owns the merged-string boundary pass: after the per-region
// sweeps are concatenated, the tasks consuming cross-region data items
// were placed blind to their input timing, so each of them is re-placed
// exactly once with SE's allocation scan — every position in its valid
// range × its Y best machines, winner by the (makespan, total, q,
// machine-rank) key — evaluated on the full graph. One sweep bounds the
// repair: reconciliation is a local polish, not a second global search.
type reconciler struct {
	g   *taskgraph.Graph
	sys *platform.System
	y   int

	delta *schedule.DeltaEvaluator

	pos []int
	buf schedule.String
}

func newReconciler(g *taskgraph.Graph, sys *platform.System, y int) *reconciler {
	return &reconciler{
		g:     g,
		sys:   sys,
		y:     y,
		delta: schedule.NewDeltaEvaluator(g, sys),
		pos:   make([]int, g.NumTasks()),
		buf:   make(schedule.String, g.NumTasks()),
	}
}

// run repairs s (schedule.Repair, a no-op for valid merges), applies the
// boundary sweep in place, and returns the reconciled string with its
// makespan.
func (r *reconciler) run(s schedule.String, boundary []taskgraph.TaskID) (schedule.String, float64) {
	s = schedule.Repair(r.g, s)
	s.Positions(r.pos)
	for _, t := range boundary {
		idx := r.pos[t]
		lo, hi := schedule.ValidRange(r.g, s, r.pos, idx)
		machines := r.sys.TopMachines(t, r.y)
		r.delta.Pin(s)
		mv := r.delta.Scan(idx, lo, hi, machines)
		schedule.MoveInto(r.buf, s, idx, mv.Q, machines[mv.MI])
		copy(s, r.buf)
		schedule.UpdatePositions(r.pos, s, idx, mv.Q)
	}
	ms, _ := r.delta.Pin(s)
	return s, ms
}

// counts returns the reconciliation's evaluation-effort ledger.
func (r *reconciler) counts() schedule.EvalCounts { return r.delta.Counts() }
