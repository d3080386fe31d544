package platform

import (
	"fmt"

	"repro/internal/taskgraph"
)

// Subsystem returns a System over the same machine suite restricted to the
// given parent task and item IDs: task i of the subsystem is parent task
// tasks[i] and item d is parent item items[d], with execution and transfer
// times copied from the parent. It is the platform half of a region
// subproblem — internal/shard pairs it with taskgraph.Induce so each DAG
// region can be scheduled by any unchanged scheduler, machine IDs staying
// globally meaningful.
//
// The IDs must be distinct, as taskgraph.Induce returns them. The parent
// passed New's checks, and every sub-matrix entry is one of its entries, so
// the sub-matrices pass them too and Subsystem builds the result directly:
// no re-validation and no second copy of the sub-matrices, and task i
// shares the parent's ranked-machine row for tasks[i] (read-only, and
// exactly the row New would sort from the same execution times).
func (s *System) Subsystem(tasks []taskgraph.TaskID, items []taskgraph.ItemID) (*System, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("platform: Subsystem: no tasks")
	}
	for _, t := range tasks {
		if t < 0 || int(t) >= s.tasks {
			return nil, fmt.Errorf("platform: Subsystem: task %d out of range [0,%d)", t, s.tasks)
		}
	}
	for _, d := range items {
		if d < 0 || int(d) >= s.items {
			return nil, fmt.Errorf("platform: Subsystem: item %d out of range [0,%d)", d, s.items)
		}
	}
	sub := &System{
		machines: s.machines,
		tasks:    len(tasks),
		items:    len(items),
		exec:     make([][]float64, s.machines),
		ranked:   make([][]taskgraph.MachineID, len(tasks)),
	}
	for m := range sub.exec {
		row := make([]float64, len(tasks))
		for i, t := range tasks {
			row[i] = s.exec[m][t]
		}
		sub.exec[m] = row
	}
	for i, t := range tasks {
		sub.ranked[i] = s.ranked[t]
	}
	if len(items) > 0 {
		sub.transfer = make([][]float64, len(s.transfer))
		for p, parent := range s.transfer {
			row := make([]float64, len(items))
			for i, d := range items {
				row[i] = parent[d]
			}
			sub.transfer[p] = row
		}
	}
	return sub, nil
}
