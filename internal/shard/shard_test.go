package shard

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/workload"
)

func shardWorkload(tasks int, seed int64) *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: tasks, Machines: 6, Connectivity: 2.5, Heterogeneity: 8, CCR: 0.5, Seed: seed,
	})
}

// sweep steps a fresh sharded engine rounds rounds and returns it.
func sweep(t *testing.T, w *workload.Workload, opts Options, rounds int) *Engine {
	t.Helper()
	e, err := NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := 0; i < rounds; i++ {
		e.Step()
	}
	return e
}

// serialSE steps a fresh serial SE engine iters generations and returns
// its result.
func serialSE(t *testing.T, w *workload.Workload, opts core.Options, iters int) *schedule.Result {
	t.Helper()
	e, err := core.NewEngine(w.Graph, w.System, opts)
	if err != nil {
		t.Fatalf("core.NewEngine: %v", err)
	}
	for i := 0; i < iters; i++ {
		e.Step()
	}
	return e.Result()
}

// TestSingleShardBitIdenticalToSerialSE is the differential guard of the
// degenerate case: with one region the sharded runner must return exactly
// what serial SE returns — same best string, makespan, iterations and
// evaluation ledger.
func TestSingleShardBitIdenticalToSerialSE(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w := shardWorkload(40, seed)
		direct := serialSE(t, w, core.Options{Bias: -0.1, Y: 3, Seed: seed}, 40)
		e := sweep(t, w, Options{Shards: 1, Bias: -0.1, Y: 3, Seed: seed}, 40)
		if e.Regions() != 1 {
			t.Fatalf("Regions = %d, want 1", e.Regions())
		}
		sharded := e.Result()
		if sharded.Makespan != direct.Makespan {
			t.Errorf("seed %d: makespan %v != serial %v", seed, sharded.Makespan, direct.Makespan)
		}
		for i := range direct.Best {
			if sharded.Best[i] != direct.Best[i] {
				t.Fatalf("seed %d: best strings differ at gene %d", seed, i)
			}
		}
		if sharded.Iterations != direct.Iterations ||
			sharded.Evaluations != direct.Evaluations ||
			sharded.DeltaEvaluations != direct.DeltaEvaluations ||
			sharded.GenesEvaluated != direct.GenesEvaluated {
			t.Errorf("seed %d: ledger differs from serial SE", seed)
		}
	}
}

func TestShardedRunValidAndDeterministic(t *testing.T) {
	w := shardWorkload(60, 11)
	opts := Options{Shards: 4, Y: 3, Seed: 11}
	ea := sweep(t, w, opts, 25)
	if ea.Regions() < 2 {
		t.Fatalf("Regions = %d, want a real multi-region run", ea.Regions())
	}
	a, b := ea.Result(), sweep(t, w, opts, 25).Result()
	if err := schedule.Validate(a.Best, w.Graph, w.System); err != nil {
		t.Fatalf("sharded best is invalid: %v", err)
	}
	if got := schedule.NewEvaluator(w.Graph, w.System).Makespan(a.Best); got != a.Makespan {
		t.Errorf("Makespan = %v but re-evaluating gives %v", a.Makespan, got)
	}
	if lb := schedule.LowerBound(w.Graph, w.System); a.Makespan < lb {
		t.Errorf("makespan %v below lower bound %v", a.Makespan, lb)
	}
	if a.Makespan != b.Makespan || a.Evaluations != b.Evaluations || a.GenesEvaluated != b.GenesEvaluated {
		t.Errorf("same seed, different outcomes: %v/%d/%d vs %v/%d/%d",
			a.Makespan, a.Evaluations, a.GenesEvaluated, b.Makespan, b.Evaluations, b.GenesEvaluated)
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatalf("same seed, best strings differ at gene %d", i)
		}
	}
}

func TestShardedDeltaVsFullIdentical(t *testing.T) {
	// The incremental engine must be invisible in sharded results too:
	// inside a Reference scope both the regions and the reconciliation
	// pass score their moves by full passes.
	w := shardWorkload(50, 13)
	opts := Options{Shards: 3, Y: 3, Seed: 5}
	delta := sweep(t, w, opts, 20).Result()
	var full *schedule.Result
	schedule.Reference(func() { full = sweep(t, w, opts, 20).Result() })
	if delta.Makespan != full.Makespan {
		t.Errorf("delta makespan %v != full %v", delta.Makespan, full.Makespan)
	}
	for i := range delta.Best {
		if delta.Best[i] != full.Best[i] {
			t.Fatalf("delta and full best strings differ at gene %d", i)
		}
	}
	if full.DeltaEvaluations != 0 {
		t.Errorf("full run reported %d delta evaluations, want 0", full.DeltaEvaluations)
	}
	if delta.DeltaEvaluations == 0 {
		t.Error("delta run reported no delta evaluations")
	}
	if delta.GenesEvaluated >= full.GenesEvaluated {
		t.Errorf("delta run evaluated %d genes, full %d — no saving", delta.GenesEvaluated, full.GenesEvaluated)
	}
}

// TestReconciliationNeverViolatesPrecedence is the reconciliation
// invariant as a property test: across random workloads, shard counts and
// seeds, the merged-and-reconciled schedule must always be a valid
// solution.
func TestReconciliationNeverViolatesPrecedence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		w := workload.MustGenerate(workload.Params{
			Tasks:         20 + rng.Intn(60),
			Machines:      2 + rng.Intn(6),
			Connectivity:  1 + 3*rng.Float64(),
			Heterogeneity: 1 + 10*rng.Float64(),
			CCR:           rng.Float64(),
			Seed:          rng.Int63(),
		})
		opts := Options{
			Shards: 2 + rng.Intn(5),
			Y:      1 + rng.Intn(3),
			Seed:   rng.Int63(),
		}
		res := sweep(t, w, opts, 5+rng.Intn(10)).Result()
		if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
			t.Fatalf("trial %d: reconciled schedule violates precedence: %v", trial, err)
		}
	}
}

func TestScheduleRepairIdentityOnValidStrings(t *testing.T) {
	w := shardWorkload(40, 17)
	res := serialSE(t, w, core.Options{Seed: 1}, 5)
	repaired := schedule.Repair(w.Graph, res.Best)
	for i := range res.Best {
		if repaired[i] != res.Best[i] {
			t.Fatalf("repair changed a valid string at gene %d", i)
		}
	}
}

func TestScheduleRepairFixesInvalidStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := shardWorkload(40, 17)
	res := serialSE(t, w, core.Options{Seed: 1}, 5)
	for trial := 0; trial < 50; trial++ {
		// Shuffle segments of a valid string into an (almost surely)
		// invalid order; repair must restore validity while preserving
		// machines and the task multiset.
		broken := res.Best.Clone()
		rng.Shuffle(len(broken), func(i, j int) { broken[i], broken[j] = broken[j], broken[i] })
		repaired := schedule.Repair(w.Graph, broken)
		if err := schedule.Validate(repaired, w.Graph, w.System); err != nil {
			t.Fatalf("trial %d: repaired string invalid: %v", trial, err)
		}
		machines := res.Best.Assignment()
		for _, gene := range repaired {
			if machines[gene.Task] != gene.Machine {
				t.Fatalf("trial %d: repair changed task %d's machine", trial, gene.Task)
			}
		}
	}
}

func TestNewEngineRejectsBadOptions(t *testing.T) {
	w := shardWorkload(30, 1)
	if _, err := NewEngine(w.Graph, w.System, Options{Shards: -1}); err == nil {
		t.Error("NewEngine accepted negative Shards")
	}
	if _, err := NewEngine(w.Graph, w.System, Options{Shards: 2, Initial: schedule.String{{Task: 0, Machine: 0}}}); err == nil {
		t.Error("NewEngine accepted an invalid initial solution")
	}
}

// TestStalledRegionsSitOut checks the per-region stagnation semantics
// Budget.NoImprovement drives: a region that has stalled stops stepping
// while the others continue, and the sweep is stalled only once every
// region is.
func TestStalledRegionsSitOut(t *testing.T) {
	w := shardWorkload(60, 11)
	e := sweep(t, w, Options{Shards: 4, Seed: 1}, 0)
	const noImprove = 3
	for round := 0; round < 10_000; round++ {
		before := make([]int, e.Regions())
		for r, eng := range e.engines {
			before[r] = eng.Result().Iterations
		}
		e.Step()
		for r, eng := range e.engines {
			stepped := eng.Result().Iterations - before[r]
			if e.stalled[r] && stepped != 0 {
				t.Fatalf("round %d: stalled region %d stepped", round, r)
			}
			if !e.stalled[r] && stepped != 1 {
				t.Fatalf("round %d: live region %d stepped %d generations", round, r, stepped)
			}
		}
		if e.Stalled(noImprove) {
			for r := range e.engines {
				if !e.stalled[r] {
					t.Fatalf("sweep stalled with region %d still live", r)
				}
			}
			return
		}
	}
	t.Fatal("sweep never stalled")
}
