package heuristics_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/heuristics"
	"repro/internal/schedule"
	"repro/internal/workload"
)

func testWorkload(seed int64) *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 30, Machines: 5,
		Connectivity:  2.5,
		Heterogeneity: 8,
		CCR:           0.8,
		Seed:          seed,
	})
}

func TestAllHeuristicsProduceValidSolutions(t *testing.T) {
	w := testWorkload(1)
	for _, r := range heuristics.All(w.Graph, w.System, 99) {
		if err := schedule.Validate(r.Solution, w.Graph, w.System); err != nil {
			t.Errorf("%s: invalid solution: %v", r.Name, err)
		}
		if r.Makespan <= 0 {
			t.Errorf("%s: makespan = %v", r.Name, r.Makespan)
		}
	}
}

func TestAllSortedByMakespan(t *testing.T) {
	w := testWorkload(2)
	rs := heuristics.All(w.Graph, w.System, 7)
	if len(rs) != 7 {
		t.Fatalf("All returned %d results, want 7", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Makespan < rs[i-1].Makespan {
			t.Errorf("results not sorted: %s %.0f before %s %.0f",
				rs[i-1].Name, rs[i-1].Makespan, rs[i].Name, rs[i].Makespan)
		}
	}
}

// TestAllMatchesSequentialCalls: All runs the heuristics concurrently but
// returns what calling them one after another and sorting gives, in the
// same order; several All calls sharing one workload at once, as a server
// creating sessions makes them, agree too.
func TestAllMatchesSequentialCalls(t *testing.T) {
	for _, w := range []*workload.Workload{workload.Figure1(), testWorkload(6), testWorkload(7)} {
		want := []heuristics.Result{
			heuristics.HEFT(w.Graph, w.System),
			heuristics.CPOP(w.Graph, w.System),
			heuristics.MinMin(w.Graph, w.System),
			heuristics.MaxMin(w.Graph, w.System),
			heuristics.Sufferage(w.Graph, w.System),
			heuristics.MCT(w.Graph, w.System),
			heuristics.Random(w.Graph, w.System, 5),
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Makespan != want[j].Makespan {
				return want[i].Makespan < want[j].Makespan
			}
			return want[i].Name < want[j].Name
		})
		got := make([][]heuristics.Result, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = heuristics.All(w.Graph, w.System, 5)
			}()
		}
		wg.Wait()
		for _, rs := range got {
			if !reflect.DeepEqual(rs, want) {
				t.Fatalf("%s: All returned %v, sequential calls %v", w.Name, rs, want)
			}
		}
	}
}

func TestBestIsMinimum(t *testing.T) {
	w := testWorkload(3)
	best := heuristics.Best(w.Graph, w.System, 7)
	for _, r := range heuristics.All(w.Graph, w.System, 7) {
		if best.Makespan > r.Makespan {
			t.Errorf("Best %.0f worse than %s %.0f", best.Makespan, r.Name, r.Makespan)
		}
	}
}

func TestHeuristicsRespectLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		w := testWorkload(seed)
		lb := schedule.LowerBound(w.Graph, w.System)
		for _, r := range heuristics.All(w.Graph, w.System, seed) {
			if r.Makespan < lb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGuidedHeuristicsBeatRandomUsually(t *testing.T) {
	// HEFT and MinMin should beat a random schedule on the vast majority
	// of heterogeneous workloads; demand 8 of 10 seeds.
	wins := 0
	for seed := int64(0); seed < 10; seed++ {
		w := testWorkload(seed + 100)
		r := heuristics.Random(w.Graph, w.System, seed)
		h := heuristics.HEFT(w.Graph, w.System)
		m := heuristics.MinMin(w.Graph, w.System)
		if h.Makespan < r.Makespan && m.Makespan < r.Makespan {
			wins++
		}
	}
	if wins < 8 {
		t.Errorf("guided heuristics beat random on only %d/10 seeds", wins)
	}
}

func TestHEFTSingleMachine(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 12, Machines: 1, Connectivity: 2, Heterogeneity: 1, CCR: 0.5, Seed: 9,
	})
	r := heuristics.HEFT(w.Graph, w.System)
	if err := schedule.Validate(r.Solution, w.Graph, w.System); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	sum := 0.0
	for tk := 0; tk < 12; tk++ {
		sum += w.System.ExecMatrix()[0][tk]
	}
	if diff := r.Makespan - sum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("single-machine HEFT makespan %v, want serial sum %v", r.Makespan, sum)
	}
}

func TestMCTFigure1(t *testing.T) {
	w := workload.Figure1()
	r := heuristics.MCT(w.Graph, w.System)
	if err := schedule.Validate(r.Solution, w.Graph, w.System); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// MCT must never be worse than running everything on one machine.
	serial0 := 0.0
	for tk := 0; tk < 7; tk++ {
		serial0 += w.System.ExecMatrix()[0][tk]
	}
	if r.Makespan > serial0 {
		t.Errorf("MCT makespan %v worse than all-on-m0 %v", r.Makespan, serial0)
	}
}

func TestHeuristicsDeterministic(t *testing.T) {
	w := testWorkload(4)
	for _, name := range []string{"heft", "cpop", "minmin", "maxmin", "sufferage", "mct"} {
		run := func() heuristics.Result {
			switch name {
			case "heft":
				return heuristics.HEFT(w.Graph, w.System)
			case "cpop":
				return heuristics.CPOP(w.Graph, w.System)
			case "minmin":
				return heuristics.MinMin(w.Graph, w.System)
			case "maxmin":
				return heuristics.MaxMin(w.Graph, w.System)
			case "sufferage":
				return heuristics.Sufferage(w.Graph, w.System)
			default:
				return heuristics.MCT(w.Graph, w.System)
			}
		}
		a, b := run(), run()
		if a.Makespan != b.Makespan {
			t.Errorf("%s: nondeterministic makespans %v vs %v", name, a.Makespan, b.Makespan)
		}
		for i := range a.Solution {
			if a.Solution[i] != b.Solution[i] {
				t.Fatalf("%s: nondeterministic solutions", name)
			}
		}
	}
}

func TestRandomSeedsDiffer(t *testing.T) {
	w := testWorkload(5)
	a := heuristics.Random(w.Graph, w.System, 1)
	b := heuristics.Random(w.Graph, w.System, 2)
	same := true
	for i := range a.Solution {
		if a.Solution[i] != b.Solution[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical random schedules")
	}
}

func TestMinMinVsMaxMinDiffer(t *testing.T) {
	// On most workloads the two orderings disagree somewhere; use one
	// where they do to confirm both paths are exercised.
	w := testWorkload(6)
	a := heuristics.MinMin(w.Graph, w.System)
	b := heuristics.MaxMin(w.Graph, w.System)
	same := true
	for i := range a.Solution {
		if a.Solution[i] != b.Solution[i] {
			same = false
			break
		}
	}
	if same {
		t.Skip("minmin and maxmin coincide on this workload; no discrimination possible")
	}
}
