// Package platform models the machine side of the HC problem: a fully
// connected suite of l heterogeneous machines, the l×k execution-time
// matrix E, and the l(l−1)/2 × p transfer-time matrix Tr from Barada,
// Sait & Baig (IPPS 2001, §2).
//
// Machine pairs are unordered (the network is symmetric); transfers within
// one machine are free. A System is immutable after construction.
package platform

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/taskgraph"
)

// System is one concrete HC suite bound to one task graph: it knows the
// execution time of every subtask on every machine and the transfer time of
// every data item across every machine pair.
type System struct {
	machines int
	tasks    int
	items    int

	exec [][]float64 // exec[m][t], all > 0

	// transfer[pairIndex(a,b)][d] for a < b; symmetric, intra-machine = 0.
	transfer [][]float64

	// ranked[t] = machines sorted by ascending exec[m][t]; ranked[t][0] is
	// the task's best-matching machine. Backs the SE Y parameter and the
	// goodness bound.
	ranked [][]taskgraph.MachineID
}

// New builds a System from the execution matrix exec[machine][task] and the
// transfer matrix transfer[pair][item]. Pair rows follow PairIndex ordering:
// (0,1), (0,2), …, (0,l−1), (1,2), …. transfer may be nil when the graph has
// no data items.
//
// Every entry must be finite, and so must the worst case any evaluator can
// reach: numTasks × (Σ_t max_m exec + Σ_d max_pair transfer) bounds the sum
// of all finish times, so every makespan and total computed on the System
// is finite too.
func New(numTasks, numItems int, exec [][]float64, transfer [][]float64) (*System, error) {
	l := len(exec)
	if l == 0 {
		return nil, fmt.Errorf("platform: no machines")
	}
	if numTasks <= 0 {
		return nil, fmt.Errorf("platform: numTasks = %d", numTasks)
	}
	maxExec := make([]float64, numTasks)
	for m, row := range exec {
		if len(row) != numTasks {
			return nil, fmt.Errorf("platform: exec row %d has %d entries, want %d", m, len(row), numTasks)
		}
		for t, v := range row {
			if !(v > 0 && v <= math.MaxFloat64) {
				return nil, fmt.Errorf("platform: exec[%d][%d] = %v, want > 0 and finite", m, t, v)
			}
			maxExec[t] = max(maxExec[t], v)
		}
	}
	pairs := l * (l - 1) / 2
	maxTransfer := make([]float64, numItems)
	if numItems > 0 {
		if len(transfer) != pairs {
			return nil, fmt.Errorf("platform: transfer has %d rows, want %d machine pairs", len(transfer), pairs)
		}
		for p, row := range transfer {
			if len(row) != numItems {
				return nil, fmt.Errorf("platform: transfer row %d has %d entries, want %d", p, len(row), numItems)
			}
			for d, v := range row {
				if !(v >= 0 && v <= math.MaxFloat64) {
					return nil, fmt.Errorf("platform: transfer[%d][%d] = %v, want >= 0 and finite", p, d, v)
				}
				maxTransfer[d] = max(maxTransfer[d], v)
			}
		}
	}
	worst := 0.0
	for _, v := range append(maxExec, maxTransfer...) {
		worst += v
	}
	if math.IsInf(float64(numTasks)*worst, 0) {
		return nil, fmt.Errorf("platform: costs too large: a schedule's finish times could sum past the float64 range")
	}
	s := &System{
		machines: l,
		tasks:    numTasks,
		items:    numItems,
		exec:     deepCopy(exec),
		transfer: deepCopy(transfer),
	}
	s.ranked = make([][]taskgraph.MachineID, numTasks)
	for t := 0; t < numTasks; t++ {
		ms := make([]taskgraph.MachineID, l)
		for m := range ms {
			ms[m] = taskgraph.MachineID(m)
		}
		sort.SliceStable(ms, func(i, j int) bool {
			return s.exec[ms[i]][t] < s.exec[ms[j]][t]
		})
		s.ranked[t] = ms
	}
	return s, nil
}

// MustNew is New for statically known-good inputs; it panics on error.
func MustNew(numTasks, numItems int, exec, transfer [][]float64) *System {
	s, err := New(numTasks, numItems, exec, transfer)
	if err != nil {
		panic(err)
	}
	return s
}

func deepCopy(m [][]float64) [][]float64 {
	if m == nil {
		return nil
	}
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// NumMachines returns l.
func (s *System) NumMachines() int { return s.machines }

// NumTasks returns k, the number of subtasks the System is sized for.
func (s *System) NumTasks() int { return s.tasks }

// NumItems returns p, the number of data items the System is sized for.
func (s *System) NumItems() int { return s.items }

// PairIndex maps an unordered machine pair {a,b}, a ≠ b, to its row in the
// transfer matrix. The ordering is (0,1), (0,2), …, (0,l−1), (1,2), ….
func (s *System) PairIndex(a, b taskgraph.MachineID) int {
	if a > b {
		a, b = b, a
	}
	ai, bi := int(a), int(b)
	return ai*(2*s.machines-ai-1)/2 + (bi - ai - 1)
}

// ExecTime returns E[m][t], the estimated execution time of subtask t on
// machine m.
func (s *System) ExecTime(m taskgraph.MachineID, t taskgraph.TaskID) float64 {
	return s.exec[m][t]
}

// TransferTime returns the time to move data item d from machine a to
// machine b (zero when a == b).
func (s *System) TransferTime(a, b taskgraph.MachineID, d taskgraph.ItemID) float64 {
	if a == b {
		return 0
	}
	return s.transfer[s.PairIndex(a, b)][d]
}

// BestMachine returns the machine with the smallest execution time for t
// (ties broken by lowest machine ID).
func (s *System) BestMachine(t taskgraph.TaskID) taskgraph.MachineID {
	return s.ranked[t][0]
}

// RankedMachines returns all machines ordered by ascending execution time
// for t. Index 0 is the best match. The caller must not modify the returned
// slice.
func (s *System) RankedMachines(t taskgraph.TaskID) []taskgraph.MachineID {
	return s.ranked[t]
}

// TopMachines returns the y best-matching machines for t (the paper's Y
// parameter). y ≤ 0 or y ≥ l returns all machines. The caller must not
// modify the returned slice.
func (s *System) TopMachines(t taskgraph.TaskID, y int) []taskgraph.MachineID {
	if y <= 0 || y >= s.machines {
		return s.ranked[t]
	}
	return s.ranked[t][:y]
}

// MinExecTime returns the execution time of t on its best-matching machine.
func (s *System) MinExecTime(t taskgraph.TaskID) float64 {
	return s.exec[s.ranked[t][0]][t]
}

// MeanExecTime returns the mean execution time of t over all machines.
func (s *System) MeanExecTime(t taskgraph.TaskID) float64 {
	sum := 0.0
	for m := 0; m < s.machines; m++ {
		sum += s.exec[m][t]
	}
	return sum / float64(s.machines)
}

// MeanTransferTime returns the mean transfer time of item d over all
// distinct machine pairs. It is zero for single-machine systems.
func (s *System) MeanTransferTime(d taskgraph.ItemID) float64 {
	pairs := s.machines * (s.machines - 1) / 2
	if pairs == 0 {
		return 0
	}
	sum := 0.0
	for p := 0; p < pairs; p++ {
		sum += s.transfer[p][d]
	}
	return sum / float64(pairs)
}

// ExecMatrix returns a deep copy of E, for serialization.
func (s *System) ExecMatrix() [][]float64 { return deepCopy(s.exec) }

// TransferMatrix returns a deep copy of Tr, for serialization.
func (s *System) TransferMatrix() [][]float64 { return deepCopy(s.transfer) }
