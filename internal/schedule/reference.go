package schedule

import (
	"sync/atomic"

	"repro/internal/taskgraph"
)

// references counts the open Reference scopes.
var references atomic.Int32

// Reference runs f with every DeltaEvaluator constructed inside it in
// reference mode: MoveMakespan materializes the moved string and scores
// it with one full Evaluator pass, never aborting, and CommitMove re-pins
// the moved string. Those answers are what the incremental replay must
// reproduce bit for bit, so differential tests run a search once plainly
// and once inside Reference and compare the results. Only tests call it.
//
// The mode is fixed when an evaluator is constructed, so the scope must
// cover every evaluator the compared run builds, including those built
// lazily (the sharded reconciler's, inside Result). The switch is
// process-wide: a test that opens a scope must not run in parallel with
// tests that compare effort counts.
func Reference(f func()) {
	references.Add(1)
	defer references.Add(-1)
	f()
}

// reference is the full-pass state of a DeltaEvaluator in reference mode.
type reference struct {
	eval  *Evaluator
	moved String
}

func newReference(d *DeltaEvaluator) *reference {
	if references.Load() == 0 {
		return nil
	}
	return &reference{eval: NewEvaluator(d.g, d.sys), moved: make(String, d.g.NumTasks())}
}

// referenceMove is MoveMakespan by one full pass over the materialized
// moved string. Its finish times are copied into work with lastFrom 0,
// so FinishInto reports them.
func (d *DeltaEvaluator) referenceMove(idx, q int, m taskgraph.MachineID) (makespan, total float64, ok bool) {
	r := d.ref
	MoveInto(r.moved, d.base, idx, q, m)
	makespan, total = r.eval.MakespanTotal(r.moved)
	copy(d.work, r.eval.finish)
	d.counts.Full++
	d.counts.Genes += uint64(len(r.moved))
	d.dirtyFrom, d.lastFrom = 0, 0
	return makespan, total, true
}

// referenceCommit is CommitMove by re-pinning the moved string.
func (d *DeltaEvaluator) referenceCommit(idx, q int, m taskgraph.MachineID) (makespan, total float64) {
	MoveInto(d.ref.moved, d.base, idx, q, m)
	return d.Pin(d.ref.moved)
}
