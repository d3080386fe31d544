package schedule_test

import (
	"math/rand"
	"testing"

	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

func TestMoveOrdering(t *testing.T) {
	cases := []struct {
		a, b schedule.Move
		less bool
	}{
		{schedule.Move{Makespan: 1}, schedule.Move{Makespan: 2}, true},
		{schedule.Move{Makespan: 2}, schedule.Move{Makespan: 1}, false},
		{schedule.Move{Makespan: 1, Total: 5}, schedule.Move{Makespan: 1, Total: 6}, true},
		{schedule.Move{Makespan: 1, Total: 5, Q: 0}, schedule.Move{Makespan: 1, Total: 5, Q: 1}, true},
		{schedule.Move{Makespan: 1, Total: 5, Q: 1, MI: 0}, schedule.Move{Makespan: 1, Total: 5, Q: 1, MI: 1}, true},
		{schedule.Move{Makespan: 1, Total: 5, Q: 1, MI: 1}, schedule.Move{Makespan: 1, Total: 5, Q: 1, MI: 1}, false},
	}
	for i, tc := range cases {
		if got := tc.a.Less(tc.b); got != tc.less {
			t.Errorf("case %d: Less = %v, want %v", i, got, tc.less)
		}
	}
}

// exhaustiveScan is the allocation scan by definition: every candidate of
// [lo, hi] × machines scored by a full pass over the materialized moved
// string, the first least (makespan, total) key winning.
func exhaustiveScan(full *schedule.Evaluator, s schedule.String, idx, lo, hi int, machines []taskgraph.MachineID) schedule.Move {
	var best schedule.Move
	found := false
	for q := lo; q <= hi; q++ {
		for mi, m := range machines {
			ms, tot := full.MakespanTotal(schedule.Moved(s, idx, q, m))
			if k := (schedule.Move{Makespan: ms, Total: tot, Q: q, MI: mi}); !found || k.Less(best) {
				best, found = k, true
			}
		}
	}
	return best
}

// TestScanReplaysOnlyRunHeads is the collapse guard: on a fixed workload
// walked by SE-style allocation, every scan must replay at most one
// candidate per machine at its first insertion point and one per later
// insertion point — the run heads — and still return the exhaustive
// scan's winner. A scan that silently fell back to replaying every
// candidate fails the count.
func TestScanReplaysOnlyRunHeads(t *testing.T) {
	w := allocWorkload()
	n, l := w.Graph.NumTasks(), w.System.NumMachines()
	full := schedule.NewEvaluator(w.Graph, w.System)
	d := schedule.NewDeltaEvaluator(w.Graph, w.System)
	for _, y := range []int{3, l} {
		rng := rand.New(rand.NewSource(int64(y)))
		s := randomSolution(w, rng)
		pos := make([]int, n)
		buf := make(schedule.String, n)
		wide := 0
		for trial := 0; trial < 4*n; trial++ {
			s.Positions(pos)
			idx := rng.Intn(n)
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			machines := w.System.TopMachines(s[idx].Task, y)
			d.Pin(s)
			before := d.Counts()
			got := d.Scan(idx, lo, hi, machines)
			replays := d.Counts().Sub(before).Delta
			if limit := uint64(len(machines) + hi - lo); replays > limit {
				t.Fatalf("Y=%d trial %d: scan of [%d, %d] × %d machines replayed %d candidates, want at most %d",
					y, trial, lo, hi, len(machines), replays, limit)
			}
			if (hi-lo+1)*len(machines) > len(machines)+hi-lo {
				wide++
			}
			if want := exhaustiveScan(full, s, idx, lo, hi, machines); got != want {
				t.Fatalf("Y=%d trial %d: Scan = %+v, exhaustive full-pass scan %+v", y, trial, got, want)
			}
			schedule.MoveInto(buf, s, idx, got.Q, machines[got.MI])
			copy(s, buf)
		}
		if wide < n {
			t.Fatalf("Y=%d: only %d of %d scans could tell run heads from an exhaustive scan", y, wide, 4*n)
		}
	}
}
