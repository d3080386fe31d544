package schedule_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// Metamorphic oracles for the evaluators. The delta-vs-full differential
// cannot catch a defect both evaluators share — a wrong row of the
// transfer matrix, say — because both would agree on the same wrong
// answer. These tests instead transform the problem in a way whose effect
// on every answer is known exactly, and hold each evaluator to it.

// relabelMachines returns w with machine m renamed perm[m]: the exec rows
// permuted and every transfer row moved to the renamed pair, so that
// Tr'(perm[a], perm[b]) = Tr(a, b). Pair rows are located by enumerating
// the documented row order (0,1), (0,2), …, (1,2), …, not through
// PairIndex, so the oracle does not share the code it checks.
func relabelMachines(w *workload.Workload, perm []taskgraph.MachineID) *workload.Workload {
	sys := w.System
	l := sys.NumMachines()
	rows := make(map[[2]int]int, l*(l-1)/2)
	for a := 0; a < l; a++ {
		for b := a + 1; b < l; b++ {
			rows[[2]int{a, b}] = len(rows)
		}
	}
	row := func(a, b taskgraph.MachineID) int {
		if a > b {
			a, b = b, a
		}
		return rows[[2]int{int(a), int(b)}]
	}
	exec := sys.ExecMatrix()
	relExec := make([][]float64, l)
	for m, r := range exec {
		relExec[perm[m]] = r
	}
	var relTr [][]float64
	if tr := sys.TransferMatrix(); len(tr) > 0 {
		relTr = make([][]float64, len(tr))
		for a := 0; a < l; a++ {
			for b := a + 1; b < l; b++ {
				ma, mb := taskgraph.MachineID(a), taskgraph.MachineID(b)
				relTr[row(perm[ma], perm[mb])] = tr[row(ma, mb)]
			}
		}
	}
	return &workload.Workload{
		Graph:  w.Graph,
		System: platform.MustNew(sys.NumTasks(), sys.NumItems(), relExec, relTr),
	}
}

// scaleTimes returns w with every execution and transfer time multiplied
// by c.
func scaleTimes(w *workload.Workload, c float64) *workload.Workload {
	scale := func(m [][]float64) [][]float64 {
		for _, r := range m {
			for j := range r {
				r[j] *= c
			}
		}
		return m
	}
	sys := w.System
	return &workload.Workload{
		Graph:  w.Graph,
		System: platform.MustNew(sys.NumTasks(), sys.NumItems(), scale(sys.ExecMatrix()), scale(sys.TransferMatrix())),
	}
}

// metamorphicMove draws one valid move of s.
func metamorphicMove(w *workload.Workload, s schedule.String, pos []int, rng *rand.Rand) (idx, q int, m taskgraph.MachineID) {
	idx = rng.Intn(len(s))
	lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
	return idx, lo + rng.Intn(hi-lo+1), taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
}

// TestMetamorphicMachineRelabelling: renaming the machines — exec rows,
// transfer pair rows and the string's assignments alike — describes the
// same schedule, so every answer of both evaluators must be bit-identical
// to the unrenamed one: the same floats meet in the same order.
func TestMetamorphicMachineRelabelling(t *testing.T) {
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x9e1a))
		l, n := w.System.NumMachines(), w.Graph.NumTasks()
		perm := make([]taskgraph.MachineID, l)
		for i, p := range rng.Perm(l) {
			perm[i] = taskgraph.MachineID(p)
		}
		rw := relabelMachines(w, perm)
		s := randomSolution(w, rng)
		rs := s.Clone()
		for i := range rs {
			rs[i].Machine = perm[rs[i].Machine]
		}

		fin, relFin := make([]float64, n), make([]float64, n)
		sameFinish := func(what string) {
			t.Helper()
			for task := range fin {
				if fin[task] != relFin[task] {
					t.Fatalf("seed %d %s: finish[s%d] = %v relabelled, %v original", seed, what, task, relFin[task], fin[task])
				}
			}
		}

		e, re := schedule.NewEvaluator(w.Graph, w.System), schedule.NewEvaluator(rw.Graph, rw.System)
		ms, tot := e.MakespanTotal(s)
		rms, rtot := re.MakespanTotal(rs)
		if ms != rms || tot != rtot {
			t.Fatalf("seed %d: Evaluator (%v, %v) relabelled, (%v, %v) original", seed, rms, rtot, ms, tot)
		}
		e.FinishInto(s, fin)
		re.FinishInto(rs, relFin)
		sameFinish("Evaluator.FinishInto")

		d, rd := schedule.NewDeltaEvaluator(w.Graph, w.System), schedule.NewDeltaEvaluator(rw.Graph, rw.System)
		d.Pin(s)
		rd.Pin(rs)
		pos := make([]int, n)
		s.Positions(pos)
		for trial := 0; trial < 12; trial++ {
			idx, q, m := metamorphicMove(w, s, pos, rng)
			ms, tot, _ := d.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
			rms, rtot, _ := rd.MoveMakespan(idx, q, perm[m], schedule.NoBound, schedule.NoBound)
			if ms != rms || tot != rtot {
				t.Fatalf("seed %d: MoveMakespan(%d,%d,m%d) = (%v, %v) relabelled, (%v, %v) original",
					seed, idx, q, m, rms, rtot, ms, tot)
			}
			d.FinishInto(fin)
			rd.FinishInto(relFin)
			sameFinish("DeltaEvaluator.FinishInto")

			// Scan's run heads are machine identities (a candidate heads a
			// run when the gene it passes runs on its machine), so a
			// relabelled scan over the relabelled machine list must pick
			// the same rank at the same key and replay the same
			// candidates.
			idx = rng.Intn(n)
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			machines := make([]taskgraph.MachineID, 0, l)
			for _, m := range rng.Perm(l)[:1+rng.Intn(l)] {
				machines = append(machines, taskgraph.MachineID(m))
			}
			relMachines := make([]taskgraph.MachineID, len(machines))
			for i, m := range machines {
				relMachines[i] = perm[m]
			}
			before, relBefore := d.Counts(), rd.Counts()
			mv, rmv := d.Scan(idx, lo, hi, machines), rd.Scan(idx, lo, hi, relMachines)
			if mv != rmv {
				t.Fatalf("seed %d: Scan(%d, [%d, %d], %v) = %+v relabelled, %+v original", seed, idx, lo, hi, machines, rmv, mv)
			}
			if c, rc := d.Counts().Sub(before), rd.Counts().Sub(relBefore); c != rc {
				t.Fatalf("seed %d: Scan of gene %d: counts %+v relabelled, %+v original", seed, idx, rc, c)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMetamorphicPowerOfTwoScaling: multiplying every execution and
// transfer time by 2^k multiplies every finish time, the makespan and the
// total by exactly 2^k — binary floating-point rounding is invariant under
// power-of-two scaling while nothing overflows or goes subnormal — for
// both evaluators.
func TestMetamorphicPowerOfTwoScaling(t *testing.T) {
	for _, k := range []int{-3, 5} {
		c := math.Ldexp(1, k)
		f := func(seed int64) bool {
			w := randomWorkload(seed)
			sw := scaleTimes(w, c)
			rng := rand.New(rand.NewSource(seed ^ 0x5ca1e))
			n := w.Graph.NumTasks()
			s := randomSolution(w, rng)

			fin, scFin := make([]float64, n), make([]float64, n)
			scaledFinish := func(what string) {
				t.Helper()
				for task := range fin {
					if scFin[task] != fin[task]*c {
						t.Fatalf("2^%d seed %d %s: finish[s%d] = %v scaled, want %v", k, seed, what, task, scFin[task], fin[task]*c)
					}
				}
			}
			scaled := func(what string, ms, tot, sms, stot float64) {
				t.Helper()
				if sms != ms*c || stot != tot*c {
					t.Fatalf("2^%d seed %d %s: (%v, %v) scaled, want (%v, %v)", k, seed, what, sms, stot, ms*c, tot*c)
				}
			}

			e, se := schedule.NewEvaluator(w.Graph, w.System), schedule.NewEvaluator(sw.Graph, sw.System)
			ms, tot := e.MakespanTotal(s)
			sms, stot := se.MakespanTotal(s)
			scaled("Evaluator", ms, tot, sms, stot)
			e.FinishInto(s, fin)
			se.FinishInto(s, scFin)
			scaledFinish("Evaluator.FinishInto")

			d, sd := schedule.NewDeltaEvaluator(w.Graph, w.System), schedule.NewDeltaEvaluator(sw.Graph, sw.System)
			ms, tot = d.Pin(s)
			sms, stot = sd.Pin(s)
			scaled("Pin", ms, tot, sms, stot)
			pos := make([]int, n)
			s.Positions(pos)
			for trial := 0; trial < 12; trial++ {
				idx, q, m := metamorphicMove(w, s, pos, rng)
				ms, tot, _ := d.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
				sms, stot, _ := sd.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
				scaled("MoveMakespan", ms, tot, sms, stot)
				d.FinishInto(fin)
				sd.FinishInto(scFin)
				scaledFinish("DeltaEvaluator.FinishInto")
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("2^%d: %v", k, err)
		}
	}
}

// relabelTasks returns w with task t renamed perm[t]: every data item
// keeps its ID, size and transfer row but joins the renamed endpoints, and
// exec column t moves to column perm[t]. Adjacency lists are sorted by
// task ID, so the renamed graph also walks each task's edges in another
// order — which max-based start times must not notice.
func relabelTasks(w *workload.Workload, perm []taskgraph.TaskID) *workload.Workload {
	g := w.Graph
	n := g.NumTasks()
	b := taskgraph.NewBuilder(n)
	b.AddTasks(n)
	for _, it := range g.Items() {
		b.AddItem(perm[it.Producer], perm[it.Consumer], it.Size)
	}
	exec := w.System.ExecMatrix()
	for m, row := range exec {
		rel := make([]float64, n)
		for t, x := range row {
			rel[perm[t]] = x
		}
		exec[m] = rel
	}
	return &workload.Workload{
		Graph:  b.MustBuild(),
		System: platform.MustNew(n, g.NumItems(), exec, w.System.TransferMatrix()),
	}
}

// boundedScan is SE's allocation scan of gene idx over every valid
// position × every machine, run twice: candidate by candidate, each
// replay bounded by the best (makespan, total) key so far, and by Scan,
// which replays only run heads. Both must pick the first candidate with
// the least key.
func boundedScan(t *testing.T, d *schedule.DeltaEvaluator, idx, lo, hi, l int) (q int, m taskgraph.MachineID) {
	t.Helper()
	bestMs, bestTot := schedule.NoBound, schedule.NoBound
	q = -1
	machines := make([]taskgraph.MachineID, l)
	for mm := range machines {
		machines[mm] = taskgraph.MachineID(mm)
	}
	for qq := lo; qq <= hi; qq++ {
		for _, mm := range machines {
			ms, tot, ok := d.MoveMakespan(idx, qq, mm, bestMs, bestTot)
			if ok && (q < 0 || ms < bestMs || (ms == bestMs && tot < bestTot)) {
				bestMs, bestTot, q, m = ms, tot, qq, mm
			}
		}
	}
	want := schedule.Move{Makespan: bestMs, Total: bestTot, Q: q, MI: int(m)}
	if got := d.Scan(idx, lo, hi, machines); got != want {
		t.Fatalf("Scan of gene %d = %+v, candidate-by-candidate scan %+v", idx, got, want)
	}
	return q, m
}

// TestMetamorphicTaskRelabelling: renaming the tasks — graph endpoints,
// exec columns and the string's genes alike — describes the same schedule
// with every gene at its old position, so every answer must be
// bit-identical and every finish time permuted. The delta evaluator keeps
// state by task (finish and data-ready times, stamps) and by position
// (checkpoints, the memo, the influence frontier); a value filed under the
// wrong index shows up as a diverging answer, scan winner or effort count.
func TestMetamorphicTaskRelabelling(t *testing.T) {
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x7a5c))
		n, l := w.Graph.NumTasks(), w.System.NumMachines()
		perm := make([]taskgraph.TaskID, n)
		for i, p := range rng.Perm(n) {
			perm[i] = taskgraph.TaskID(p)
		}
		rw := relabelTasks(w, perm)
		relabel := func(s schedule.String) schedule.String {
			rs := s.Clone()
			for i := range rs {
				rs[i].Task = perm[rs[i].Task]
			}
			return rs
		}
		s := randomSolution(w, rng)
		rs := relabel(s)

		fin, relFin := make([]float64, n), make([]float64, n)
		permuted := func(what string) {
			t.Helper()
			for task := range fin {
				if relFin[perm[task]] != fin[task] {
					t.Fatalf("seed %d %s: finish[s%d] = %v relabelled, finish[s%d] = %v original",
						seed, what, perm[task], relFin[perm[task]], task, fin[task])
				}
			}
		}
		same := func(what string, ms, tot, rms, rtot float64) {
			t.Helper()
			if ms != rms || tot != rtot {
				t.Fatalf("seed %d %s: (%v, %v) relabelled, (%v, %v) original", seed, what, rms, rtot, ms, tot)
			}
		}

		e, re := schedule.NewEvaluator(w.Graph, w.System), schedule.NewEvaluator(rw.Graph, rw.System)
		ms, tot := e.MakespanTotal(s)
		rms, rtot := re.MakespanTotal(rs)
		same("Evaluator", ms, tot, rms, rtot)
		e.FinishInto(s, fin)
		re.FinishInto(rs, relFin)
		permuted("Evaluator.FinishInto")

		d, rd := schedule.NewDeltaEvaluator(w.Graph, w.System), schedule.NewDeltaEvaluator(rw.Graph, rw.System)
		d.Pin(s)
		rd.Pin(rs)
		pos := make([]int, n)
		for trial := 0; trial < 6; trial++ {
			s.Positions(pos)
			idx, q, m := metamorphicMove(w, s, pos, rng)
			ms, tot, _ := d.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
			rms, rtot, _ := rd.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
			same(fmt.Sprintf("MoveMakespan(%d,%d,m%d)", idx, q, m), ms, tot, rms, rtot)
			d.FinishInto(fin)
			rd.FinishInto(relFin)
			permuted("DeltaEvaluator.FinishInto")

			// A bounded scan of one gene, its winner committed on both.
			idx = rng.Intn(n)
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			q, m = boundedScan(t, d, idx, lo, hi, l)
			if rq, rm := boundedScan(t, rd, idx, lo, hi, l); rq != q || rm != m {
				t.Fatalf("seed %d: scan of gene %d picked (%d, m%d) relabelled, (%d, m%d) original", seed, idx, rq, rm, q, m)
			}
			if c, rc := d.Counts(), rd.Counts(); c != rc {
				t.Fatalf("seed %d: scan of gene %d: counts %+v relabelled, %+v original", seed, idx, rc, c)
			}
			d.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
			rd.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
			ms, tot = d.CommitMove(idx, q, m)
			rms, rtot = rd.CommitMove(idx, q, m)
			same(fmt.Sprintf("CommitMove(%d,%d,m%d)", idx, q, m), ms, tot, rms, rtot)
			s = schedule.Moved(s, idx, q, m)
			rs = relabel(s)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
