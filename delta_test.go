// Enforces the incremental evaluation engine's acceptance bar outside
// benchmark runs: on the Figure-3 workload class at paper scale, an SE
// allocation sweep must evaluate at least 20× fewer genes with the delta
// engine than with full evaluation (the same search inside a
// schedule.Reference scope, where every candidate is scored by a full
// pass) — at byte-identical search results. The engine reaches about
// 25.7×. Replaying every candidate instead of only the scan's run heads
// reached about 4.1×, and without the "no task can gain" abort as well
// about 2.3×. BenchmarkSEAllocationDeltaVsFull reports the same
// quantities as metrics; this test fails the build if the saving
// regresses.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/schedule"
	"repro/internal/scheduler"
)

func TestDeltaEngineHalvesGenesPerAllocationSweep(t *testing.T) {
	w := benchWorkload(100, 20)
	run := func(opts ...scheduler.Option) *scheduler.Result {
		s, err := scheduler.Open("se", w.Graph, w.System, append(opts, scheduler.WithSeed(1), scheduler.WithY(9))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scheduler.Drive(context.Background(), s, scheduler.Budget{MaxIterations: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	delta := run()
	var fullRes *scheduler.Result
	schedule.Reference(func() { fullRes = run() })

	if delta.Makespan != fullRes.Makespan {
		t.Fatalf("delta best makespan %v != full %v", delta.Makespan, fullRes.Makespan)
	}
	for i := range delta.Best {
		if delta.Best[i] != fullRes.Best[i] {
			t.Fatalf("best strings differ at gene %d: %v vs %v", i, delta.Best[i], fullRes.Best[i])
		}
	}
	if fullRes.GenesEvaluated < 20*delta.GenesEvaluated {
		t.Errorf("genes per sweep: full %d < 20× delta %d — the incremental engine lost part of its saving",
			fullRes.GenesEvaluated, delta.GenesEvaluated)
	}
	if delta.DeltaEvaluations == 0 {
		t.Error("delta run reported no suffix replays")
	}
	t.Logf("genes evaluated: full %d, delta %d (%.1f× fewer); full evals %d→%d, suffix replays %d",
		fullRes.GenesEvaluated, delta.GenesEvaluated,
		float64(fullRes.GenesEvaluated)/float64(delta.GenesEvaluated),
		fullRes.Evaluations, delta.Evaluations, delta.DeltaEvaluations)
}
