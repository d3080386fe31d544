package schedule_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// Differential tests: DeltaEvaluator must agree bit-for-bit with the full
// Evaluator — on makespan, on the total-finish tie-break criterion, and
// on every per-task finish time — across random workloads, random move
// sequences, and the checkpoint-invalidation edge cases (moves touching
// index 0, the last index, and q == idx).

// assertAgree compares the delta evaluation of moving idx→q on machine m
// against a full evaluation of the materialized moved string.
func assertAgree(t *testing.T, w *workload.Workload, base schedule.String, idx, q int, m taskgraph.MachineID) schedule.String {
	t.Helper()
	full := schedule.NewEvaluator(w.Graph, w.System)
	delta := schedule.NewDeltaEvaluator(w.Graph, w.System)
	delta.Pin(base)

	moved := schedule.Moved(base, idx, q, m)
	wantMs, wantTotal := full.MakespanTotal(moved)
	wantFin := make([]float64, len(base))
	full.FinishInto(moved, wantFin)

	gotMs, gotTotal, ok := delta.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
	if !ok {
		t.Fatalf("MoveMakespan(%d,%d,m%d) aborted with NoBound", idx, q, m)
	}
	if gotMs != wantMs {
		t.Fatalf("MoveMakespan(%d,%d,m%d) = %v, full evaluator %v", idx, q, m, gotMs, wantMs)
	}
	if gotTotal != wantTotal {
		t.Fatalf("MoveMakespan(%d,%d,m%d) total = %v, full evaluator %v", idx, q, m, gotTotal, wantTotal)
	}
	gotFin := make([]float64, len(base))
	delta.FinishInto(gotFin)
	for task := range gotFin {
		if gotFin[task] != wantFin[task] {
			t.Fatalf("MoveMakespan(%d,%d,m%d): finish[s%d] = %v, full evaluator %v",
				idx, q, m, task, gotFin[task], wantFin[task])
		}
	}
	return moved
}

func TestDeltaAgreesOnRandomMoves(t *testing.T) {
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xde17a))
		s := randomSolution(w, rng)
		pos := make([]int, len(s))
		for trial := 0; trial < 15; trial++ {
			idx := rng.Intn(len(s))
			s.Positions(pos)
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			q := lo + rng.Intn(hi-lo+1)
			m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
			// Each trial re-pins on the moved string, exercising pin → move
			// sequences the searches perform.
			s = assertAgree(t, w, s, idx, q, m)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeltaEdgeCaseMoves(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1001} {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xed6e))
		s := randomSolution(w, rng)
		n := len(s)
		pos := make([]int, n)
		s.Positions(pos)

		// q == idx with and without a machine change (pure reassignment and
		// the identity move), plus moves pinned to the string's ends.
		type mv struct{ idx, q int }
		cases := []mv{{0, 0}, {n - 1, n - 1}}
		lo, hi := schedule.ValidRange(w.Graph, s, pos, 0)
		cases = append(cases, mv{0, hi}, mv{0, lo})
		lo, hi = schedule.ValidRange(w.Graph, s, pos, n-1)
		cases = append(cases, mv{n - 1, lo}, mv{n - 1, hi})
		mid := n / 2
		lo, hi = schedule.ValidRange(w.Graph, s, pos, mid)
		cases = append(cases, mv{mid, mid}, mv{mid, lo}, mv{mid, hi})

		for _, c := range cases {
			for m := 0; m < w.System.NumMachines(); m++ {
				assertAgree(t, w, s, c.idx, c.q, taskgraph.MachineID(m))
			}
		}
	}
}

func TestDeltaBoundNeverAbortsWinners(t *testing.T) {
	// The early-exit contract: a candidate with true makespan ≤ bound is
	// never aborted; an aborted candidate's true makespan strictly
	// exceeds the bound.
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xb0bd))
		s := randomSolution(w, rng)
		full := schedule.NewEvaluator(w.Graph, w.System)
		delta := schedule.NewDeltaEvaluator(w.Graph, w.System)
		delta.Pin(s)
		pos := make([]int, len(s))
		s.Positions(pos)
		bound := full.Makespan(s) // the base makespan as a plausible bound
		for trial := 0; trial < 20; trial++ {
			idx := rng.Intn(len(s))
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			q := lo + rng.Intn(hi-lo+1)
			m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
			want := full.Makespan(schedule.Moved(s, idx, q, m))
			got, _, ok := delta.MoveMakespan(idx, q, m, bound, schedule.NoBound)
			if ok && got != want {
				return false
			}
			if !ok && want <= bound {
				return false // aborted a candidate that was within bound
			}
			if ok && got > bound {
				return false // bound violated without abort
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeltaMachineOnlyMoveWithTiedFinish(t *testing.T) {
	// Regression: a machine-only move whose moved task finishes at
	// exactly its base time still diverges its successors through their
	// transfer times. The convergence cutoff must not fast-forward past
	// that. Construction: T0 costs 10 on both m0 and m1, feeds T3 on m2;
	// Tr(m0,m2) = 1 but Tr(m1,m2) = 100, and neither m0 nor m1 hosts any
	// later task, so the ready comparison alone cannot catch the change.
	b := taskgraph.NewBuilder(4)
	t0 := b.AddTask("")
	b.AddTask("")
	b.AddTask("")
	t3 := taskgraph.TaskID(3)
	b.AddTask("")
	b.AddItem(t0, t3, 1)
	g := b.MustBuild()

	exec := [][]float64{
		{10, 5, 5, 50}, // m0
		{10, 5, 5, 50}, // m1
		{90, 5, 5, 1},  // m2
	}
	transfer := [][]float64{
		{7},   // pair (m0,m1)
		{1},   // pair (m0,m2)
		{100}, // pair (m1,m2)
	}
	sys := platform.MustNew(4, 1, exec, transfer)

	base := schedule.String{
		{Task: 0, Machine: 0},
		{Task: 1, Machine: 2},
		{Task: 2, Machine: 2},
		{Task: 3, Machine: 2},
	}
	pos := make([]int, len(base))
	base.Positions(pos)
	for idx := range base {
		lo, hi := schedule.ValidRange(g, base, pos, idx)
		for q := lo; q <= hi; q++ {
			for m := 0; m < sys.NumMachines(); m++ {
				assertAgree(t, &workload.Workload{Graph: g, System: sys}, base, idx, q, taskgraph.MachineID(m))
			}
		}
	}
}

func TestDeltaAgreesOnHomogeneousIntegerPlatforms(t *testing.T) {
	// Exact finish-time ties are essentially impossible on random float
	// workloads but systematic on homogeneous integer platforms, which
	// is where tie-dependent shortcuts (the convergence cutoff, the
	// total-bound equality) must prove themselves.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWorkload(seed)
		n, l := w.Graph.NumTasks(), w.System.NumMachines()
		exec := make([][]float64, l)
		for m := range exec {
			exec[m] = make([]float64, n)
		}
		for t := 0; t < n; t++ {
			c := float64(1 + rng.Intn(5))
			for m := 0; m < l; m++ {
				exec[m][t] = c // identical on every machine
			}
		}
		pairs := l * (l - 1) / 2
		var transfer [][]float64
		if w.Graph.NumItems() > 0 {
			transfer = make([][]float64, pairs)
			for p := range transfer {
				transfer[p] = make([]float64, w.Graph.NumItems())
				for d := range transfer[p] {
					transfer[p][d] = float64(rng.Intn(4)) // small integers incl. 0
				}
			}
		}
		sys := platform.MustNew(n, w.Graph.NumItems(), exec, transfer)
		hw := &workload.Workload{Graph: w.Graph, System: sys}

		s := randomSolution(hw, rng)
		pos := make([]int, n)
		for trial := 0; trial < 12; trial++ {
			idx := rng.Intn(n)
			s.Positions(pos)
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			q := lo + rng.Intn(hi-lo+1)
			m := taskgraph.MachineID(rng.Intn(l))
			s = assertAgree(t, hw, s, idx, q, m)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeltaTotalBoundNeverAbortsWinners(t *testing.T) {
	// The two-part bound contract: with (boundMs, boundTotal) set to an
	// incumbent's key, an aborted candidate's true (makespan, total) key
	// never lexicographically beats the incumbent, and a candidate whose
	// key does beat it is never aborted.
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x707a1))
		s := randomSolution(w, rng)
		full := schedule.NewEvaluator(w.Graph, w.System)
		delta := schedule.NewDeltaEvaluator(w.Graph, w.System)
		delta.Pin(s)
		pos := make([]int, len(s))
		s.Positions(pos)
		boundMs, boundTotal := full.MakespanTotal(s) // the base's key as incumbent
		for trial := 0; trial < 20; trial++ {
			idx := rng.Intn(len(s))
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			q := lo + rng.Intn(hi-lo+1)
			m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
			wantMs, wantTotal := full.MakespanTotal(schedule.Moved(s, idx, q, m))
			beats := wantMs < boundMs || (wantMs == boundMs && wantTotal < boundTotal)
			gotMs, gotTotal, ok := delta.MoveMakespan(idx, q, m, boundMs, boundTotal)
			if ok && (gotMs != wantMs || gotTotal != wantTotal) {
				return false
			}
			if !ok && beats {
				return false // aborted a candidate that beats the incumbent
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeltaCommitMoveEquivalentToRepin(t *testing.T) {
	// Committing an evaluated move must leave the evaluator in exactly the
	// state a full Pin of the moved string would: same base makespan and
	// totals, and identical answers for subsequent moves.
	f := func(seed int64) bool {
		w := randomWorkload(seed)
		rng := rand.New(rand.NewSource(seed ^ 0xc037))
		s := randomSolution(w, rng)
		full := schedule.NewEvaluator(w.Graph, w.System)
		committed := schedule.NewDeltaEvaluator(w.Graph, w.System)
		committed.Pin(s)
		pos := make([]int, len(s))
		for trial := 0; trial < 12; trial++ {
			idx := rng.Intn(len(s))
			s.Positions(pos)
			lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
			q := lo + rng.Intn(hi-lo+1)
			m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))

			wantMs, wantTotal, ok := committed.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
			if !ok {
				t.Fatal("unbounded replay aborted")
			}
			gotMs, gotTotal := committed.CommitMove(idx, q, m)
			if gotMs != wantMs || gotTotal != wantTotal {
				t.Fatalf("CommitMove = (%v,%v), MoveMakespan said (%v,%v)", gotMs, gotTotal, wantMs, wantTotal)
			}
			s = schedule.Moved(s, idx, q, m)
			if fullMs, fullTotal := full.MakespanTotal(s); gotMs != fullMs || gotTotal != fullTotal {
				t.Fatalf("committed base = (%v,%v), full evaluator (%v,%v)", gotMs, gotTotal, fullMs, fullTotal)
			}
			base := committed.Base()
			for i := range s {
				if base[i] != s[i] {
					t.Fatalf("committed base differs from moved string at gene %d", i)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeltaCountsLedger(t *testing.T) {
	w := randomWorkload(3)
	n := w.Graph.NumTasks()
	delta := schedule.NewDeltaEvaluator(w.Graph, w.System)
	rng := rand.New(rand.NewSource(3))
	s := randomSolution(w, rng)
	delta.Pin(s)
	c := delta.Counts()
	if c.Full != 1 || c.Genes != uint64(n) || c.Delta != 0 {
		t.Fatalf("after Pin: counts = %+v, want Full=1 Genes=%d", c, n)
	}
	pos := make([]int, n)
	s.Positions(pos)
	lo, _ := schedule.ValidRange(w.Graph, s, pos, n-1)
	if _, _, ok := delta.MoveMakespan(n-1, lo, s[n-1].Machine, schedule.NoBound, schedule.NoBound); !ok {
		t.Fatal("unbounded replay aborted")
	}
	c = delta.Counts()
	if c.Delta != 1 || c.Full != 1 {
		t.Fatalf("after one replay: counts = %+v, want Full=1 Delta=1", c)
	}
	if replayed := c.Genes - uint64(n); replayed > uint64(n) {
		t.Fatalf("replay stepped %d genes, more than a full pass (%d)", replayed, n)
	}
	// An impossible bound aborts immediately.
	if _, _, ok := delta.MoveMakespan(n-1, lo, s[n-1].Machine, -math.MaxFloat64, schedule.NoBound); ok {
		t.Fatal("replay with impossible bound did not abort")
	}
	if c = delta.Counts(); c.Aborted != 1 {
		t.Fatalf("aborted count = %d, want 1", c.Aborted)
	}
}

func TestReferenceModeScoresByFullPasses(t *testing.T) {
	// An evaluator built inside a Reference scope answers every move with
	// one full pass: exact values even under a bound that would abort a
	// replay, full-pass finish times, no replay in the ledger, and a
	// commit that re-pins the moved string. One built outside the scope
	// stays incremental.
	w := randomWorkload(11)
	rng := rand.New(rand.NewSource(11))
	s := randomSolution(w, rng)
	n := len(s)
	full := schedule.NewEvaluator(w.Graph, w.System)
	var ref *schedule.DeltaEvaluator
	schedule.Reference(func() { ref = schedule.NewDeltaEvaluator(w.Graph, w.System) })
	plain := schedule.NewDeltaEvaluator(w.Graph, w.System)
	ref.Pin(s)
	plain.Pin(s)
	pos := make([]int, n)
	wantFin, gotFin := make([]float64, n), make([]float64, n)
	moves := 0
	for trial := 0; trial < 30; trial++ {
		s.Positions(pos)
		idx := rng.Intn(n)
		lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
		q := lo + rng.Intn(hi-lo+1)
		m := taskgraph.MachineID(rng.Intn(w.System.NumMachines()))
		moved := schedule.Moved(s, idx, q, m)
		wantMs, wantTot := full.MakespanTotal(moved)
		// A bound below every schedule would abort any replay at once.
		gotMs, gotTot, ok := ref.MoveMakespan(idx, q, m, 0, 0)
		moves++
		if !ok || gotMs != wantMs || gotTot != wantTot {
			t.Fatalf("reference MoveMakespan = (%v,%v,%v), full evaluator (%v,%v)", gotMs, gotTot, ok, wantMs, wantTot)
		}
		if _, _, ok := plain.MoveMakespan(idx, q, m, 0, 0); ok {
			t.Fatal("an evaluator built outside the Reference scope did not abort under a zero bound")
		}
		full.FinishInto(moved, wantFin)
		ref.FinishInto(gotFin)
		for task := range wantFin {
			if gotFin[task] != wantFin[task] {
				t.Fatalf("reference FinishInto: finish[s%d] = %v, full evaluator %v", task, gotFin[task], wantFin[task])
			}
		}
		if trial%3 == 0 {
			if cms, ctot := ref.CommitMove(idx, q, m); cms != wantMs || ctot != wantTot {
				t.Fatalf("reference CommitMove = (%v,%v), full evaluator (%v,%v)", cms, ctot, wantMs, wantTot)
			}
			plain.Pin(moved)
			s = moved
			moves++ // the commit's re-pin
		}
	}
	c := ref.Counts()
	if c.Delta != 0 || c.Aborted != 0 || c.Full != uint64(1+moves) || c.Genes != uint64((1+moves)*n) {
		t.Errorf("reference ledger %+v, want %d full passes of %d genes and no replays", c, 1+moves, n)
	}
	if plain.Counts().Delta == 0 {
		t.Error("the plain evaluator reported no replays")
	}
}
