package shard

import (
	"reflect"
	"testing"

	"repro/internal/schedule"
	"repro/internal/workload"
)

// restoredResult is the uncached reference for Result: a restore of e's
// state starts with an empty reconciliation memo, so its Result always
// reconciles afresh.
func restoredResult(t *testing.T, e *Engine, w *workload.Workload) *schedule.Result {
	t.Helper()
	data, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	fresh, err := RestoreEngine(data, w.Graph, w.System)
	if err != nil {
		t.Fatalf("RestoreEngine: %v", err)
	}
	return fresh.Result()
}

// TestResultMemoMatchesFreshReconcile is the memo's differential guard:
// after every round, a long-lived engine's Result — which reuses its last
// reconciliation while the regions' bests merge to the same string — must
// equal, in every field, the Result of a restored copy that reconciles
// from scratch.
func TestResultMemoMatchesFreshReconcile(t *testing.T) {
	hits, misses := 0, 0
	for _, seed := range []int64{3, 8} {
		w := shardWorkload(40, seed)
		for _, shards := range []int{2, 4} {
			opts := Options{Shards: shards, Y: 2, Seed: seed}
			run := func() {
				e := sweep(t, w, opts, 0)
				for round := 0; round < 30; round++ {
					e.Step()
					key := e.memo.merged
					got := e.Result()
					if key != nil && &key[0] == &e.memo.merged[0] {
						hits++
					} else {
						misses++
					}
					if want := restoredResult(t, e, w); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d, %+v, round %d: memoized Result %+v != fresh %+v",
							seed, opts, round, got, want)
					}
				}
			}
			run()
			schedule.Reference(run)
		}
	}
	if hits == 0 || misses == 0 {
		t.Errorf("memo hits %d, misses %d: the test must exercise both paths", hits, misses)
	}
}

// TestResultRepeatsWithoutAliasing checks two back-to-back Results are
// equal and independent: the second is served from the memo, so it must
// not share the first's Best.
func TestResultRepeatsWithoutAliasing(t *testing.T) {
	w := shardWorkload(60, 11)
	e := sweep(t, w, Options{Shards: 4, Seed: 2}, 10)
	first := e.Result()
	want := first.Best.Clone()
	for i := range first.Best {
		first.Best[i].Machine = 0
	}
	second := e.Result()
	if !reflect.DeepEqual(second.Best, want) {
		t.Fatal("mutating one Result's Best changed the next Result")
	}
	first.Best = want
	if !reflect.DeepEqual(first, second) {
		t.Errorf("back-to-back Results differ: %+v vs %+v", first, second)
	}
}

// TestResultMemoHitAllocations pins what a repeated Result costs on the
// dist-2w class (60 tasks × 12 machines): with no Step between, it merges
// the regions' bests and clones the stored reconciliation, and never
// rebuilds a reconciler.
func TestResultMemoHitAllocations(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 60, Machines: 12,
		Connectivity: workload.HighConnectivity, Heterogeneity: workload.MediumHeterogeneity,
		CCR: 0.5, Seed: 7,
	})
	e := sweep(t, w, Options{Shards: 4, Seed: 3}, 10)
	e.Result()
	if allocs := testing.AllocsPerRun(20, func() { e.Result() }); allocs > 16 {
		t.Errorf("repeated Result allocates %.0f objects, want <= 16", allocs)
	}
}
