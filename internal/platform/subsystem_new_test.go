package platform_test

import (
	"slices"
	"testing"

	"repro/internal/platform"
	"repro/internal/shard"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// TestSubsystemMatchesNew is the differential guard of Subsystem's direct
// construction: for every preset and several level-band partitions, each
// region's Subsystem answers every ExecTime, TransferTime and
// RankedMachines query exactly as New does on the same sub-matrices.
func TestSubsystemMatchesNew(t *testing.T) {
	for _, name := range workload.PresetNames() {
		w, err := workload.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		exec, transfer := w.System.ExecMatrix(), w.System.TransferMatrix()
		for _, k := range []int{1, 2, 3, 4, 7} {
			part := shard.PartitionLevelBands(w.Graph, k)
			for r, tasks := range part.Regions {
				induced, err := w.Graph.Induce(tasks)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.System.Subsystem(induced.Tasks, induced.Items)
				if err != nil {
					t.Fatalf("%s k=%d region %d: Subsystem: %v", name, k, r, err)
				}
				want := platform.MustNew(len(induced.Tasks), len(induced.Items),
					subExec(exec, induced.Tasks), subTransfer(transfer, induced.Items))
				assertSameSystem(t, got, want)
				if t.Failed() {
					t.Fatalf("%s k=%d region %d: Subsystem differs from New", name, k, r)
				}
			}
		}
	}
}

func subExec(exec [][]float64, tasks []taskgraph.TaskID) [][]float64 {
	out := make([][]float64, len(exec))
	for m, row := range exec {
		for _, t := range tasks {
			out[m] = append(out[m], row[t])
		}
	}
	return out
}

func subTransfer(transfer [][]float64, items []taskgraph.ItemID) [][]float64 {
	if len(items) == 0 {
		return nil
	}
	out := make([][]float64, len(transfer))
	for p, row := range transfer {
		for _, d := range items {
			out[p] = append(out[p], row[d])
		}
	}
	return out
}

func assertSameSystem(t *testing.T, got, want *platform.System) {
	t.Helper()
	if got.NumMachines() != want.NumMachines() || got.NumTasks() != want.NumTasks() || got.NumItems() != want.NumItems() {
		t.Fatalf("dims %d/%d/%d, want %d/%d/%d", got.NumMachines(), got.NumTasks(), got.NumItems(),
			want.NumMachines(), want.NumTasks(), want.NumItems())
	}
	l := want.NumMachines()
	for i := 0; i < want.NumTasks(); i++ {
		task := taskgraph.TaskID(i)
		for m := 0; m < l; m++ {
			if g, w := got.ExecTime(taskgraph.MachineID(m), task), want.ExecTime(taskgraph.MachineID(m), task); g != w {
				t.Errorf("ExecTime(%d, %d) = %v, want %v", m, i, g, w)
			}
		}
		if g, w := got.RankedMachines(task), want.RankedMachines(task); !slices.Equal(g, w) {
			t.Errorf("RankedMachines(%d) = %v, want %v", i, g, w)
		}
	}
	for d := 0; d < want.NumItems(); d++ {
		for a := 0; a < l; a++ {
			for b := 0; b < l; b++ {
				ma, mb, item := taskgraph.MachineID(a), taskgraph.MachineID(b), taskgraph.ItemID(d)
				if g, w := got.TransferTime(ma, mb, item), want.TransferTime(ma, mb, item); g != w {
					t.Errorf("TransferTime(%d, %d, %d) = %v, want %v", a, b, d, g, w)
				}
			}
		}
	}
}
