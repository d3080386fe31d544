package schedule_test

import (
	"math/rand"
	"testing"

	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// FuzzDeltaScan drives ONE long-lived DeltaEvaluator through a decoded
// sequence of the operations the searches issue — SE-style bounded scans
// that commit their winner, and fresh pins — and checks every answer
// against a full Evaluator on the materialized string. assertAgree builds a fresh evaluator per
// candidate and the bound tests never commit; this target carries the
// evaluator's cached state (checkpoints, the machine-scan memo, the
// per-edge transfer times) across aborted machine-changing candidates and
// commits, which is exactly the state a search leaves behind between
// calls. Each scan op also runs Scan, the run-collapsed scan, on the same
// pinned base over a decoded machine list — a rotation of all machines,
// or a Y-limited one that may omit the base machine — and requires the
// winner and key of an exhaustive full-pass scan.
//
// The seed picks the workload and the initial string; ops is read one
// byte at a time as an operation code followed by its operands.
func FuzzDeltaScan(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1001} {
		f.Add(seed, []byte{0, 3, 1, 0, 9, 2, 2, 5, 1, 0, 17, 0, 0, 200, 7, 1, 4, 0, 11, 3})
	}
	f.Add(int64(5), []byte{0, 0, 0, 0, 1, 2, 0, 2, 2, 0, 3, 4, 0, 5, 6})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		w := randomWorkload(seed)
		n, l := w.Graph.NumTasks(), w.System.NumMachines()
		s := randomSolution(w, rand.New(rand.NewSource(seed)))
		full := schedule.NewEvaluator(w.Graph, w.System)
		d := schedule.NewDeltaEvaluator(w.Graph, w.System)
		d.Pin(s)
		pos := make([]int, n)
		wantFin := make([]float64, n)
		gotFin := make([]float64, n)

		// agree checks an un-aborted answer for the materialized string
		// against the full evaluator: makespan, total and finish times.
		agree := func(what string, str schedule.String, ms, tot float64) {
			t.Helper()
			wantMs, wantTot := full.MakespanTotal(str)
			if ms != wantMs || tot != wantTot {
				t.Fatalf("%s = (%v, %v), full evaluator (%v, %v)", what, ms, tot, wantMs, wantTot)
			}
			full.FinishInto(str, wantFin)
			d.FinishInto(gotFin)
			for task := range wantFin {
				if gotFin[task] != wantFin[task] {
					t.Fatalf("%s: finish[s%d] = %v, full evaluator %v", what, task, gotFin[task], wantFin[task])
				}
			}
		}
		sameBase := func(what string) {
			t.Helper()
			base := d.Base()
			for i := range s {
				if base[i] != s[i] {
					t.Fatalf("%s: Base()[%d] = %+v, want %+v", what, i, base[i], s[i])
				}
			}
		}

		for op := 0; op < 12 && len(ops) > 0; op++ {
			switch next() % 2 {
			case 0:
				// SE-style scan of one gene: every valid position × every
				// machine (starting from a decoded rotation, so the base
				// machine lands anywhere in the order), bounded by the
				// running best key, then the winner re-evaluated unbounded
				// and committed. An abort must return a lower bound on the
				// candidate's key that loses to the bound.
				idx, rot, y := next()%n, next(), next()
				s.Positions(pos)
				lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
				bestMs, bestTot := schedule.NoBound, schedule.NoBound
				bestQ, bestM := -1, taskgraph.MachineID(0)
				for q := lo; q <= hi; q++ {
					for k := 0; k < l; k++ {
						m := taskgraph.MachineID((rot + k) % l)
						moved := schedule.Moved(s, idx, q, m)
						ms, tot, ok := d.MoveMakespan(idx, q, m, bestMs, bestTot)
						if !ok {
							wantMs, wantTot := full.MakespanTotal(moved)
							if wantMs < bestMs || (wantMs == bestMs && wantTot < bestTot) {
								t.Fatalf("MoveMakespan(%d,%d,m%d) aborted a key (%v, %v) that beats its bound (%v, %v)",
									idx, q, m, wantMs, wantTot, bestMs, bestTot)
							}
							if ms > wantMs || tot > wantTot || !(ms > bestMs || (ms == bestMs && tot >= bestTot)) {
								t.Fatalf("MoveMakespan(%d,%d,m%d) aborted with (%v, %v): key (%v, %v), bound (%v, %v)",
									idx, q, m, ms, tot, wantMs, wantTot, bestMs, bestTot)
							}
							continue
						}
						agree("MoveMakespan", moved, ms, tot)
						if bestQ < 0 || ms < bestMs || (ms == bestMs && tot < bestTot) {
							bestMs, bestTot, bestQ, bestM = ms, tot, q, m
						}
					}
				}
				// The run-collapsed scan of the same base over a prefix of
				// the rotation (1 + y/2 of its machines, modulo their
				// count), without the base machine when y is odd (unless
				// that leaves none).
				machines := make([]taskgraph.MachineID, 0, l)
				for k := 0; k < l; k++ {
					if m := taskgraph.MachineID((rot + k) % l); y%2 == 0 || m != s[idx].Machine || l == 1 {
						machines = append(machines, m)
					}
				}
				machines = machines[:1+y/2%len(machines)]
				if got, want := d.Scan(idx, lo, hi, machines), exhaustiveScan(full, s, idx, lo, hi, machines); got != want {
					t.Fatalf("Scan(%d, [%d, %d], %v) = %+v, exhaustive full-pass scan %+v", idx, lo, hi, machines, got, want)
				}
				moved := schedule.Moved(s, idx, bestQ, bestM)
				ms, tot, ok := d.MoveMakespan(idx, bestQ, bestM, schedule.NoBound, schedule.NoBound)
				if !ok {
					t.Fatalf("unbounded MoveMakespan(%d,%d,m%d) aborted", idx, bestQ, bestM)
				}
				agree("winner MoveMakespan", moved, ms, tot)
				cms, ctot := d.CommitMove(idx, bestQ, bestM)
				s = moved
				agree("CommitMove", s, cms, ctot)
				sameBase("CommitMove")
			case 1:
				// A fresh pin of an unrelated string.
				s = randomSolution(w, rand.New(rand.NewSource(int64(next()))))
				ms, tot := d.Pin(s)
				agree("Pin", s, ms, tot)
			}
		}
	})
}
