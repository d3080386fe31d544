// Sharded-allocation acceptance tests: the wall-clock and quality claims
// README's "Scaling" section makes for se-shard, pinned down on the same
// 500-task preset the root benchmark measures.
package repro_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/shard"
	"repro/internal/workload"
)

func xlargeWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	w, err := workload.Preset("xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func timedRun(t testing.TB, w *workload.Workload, name string, iters int, opts ...scheduler.Option) (*scheduler.Result, time.Duration) {
	t.Helper()
	start := time.Now()
	s, err := scheduler.Open(name, w.Graph, w.System, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := scheduler.Drive(context.Background(), s, scheduler.Budget{MaxIterations: iters})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, time.Since(start)
}

// TestShardedAllocationBeatsSerialWallClock enforces the sharding
// speedup: on a ≥500-task workload partitioned into ≥4 regions, se-shard
// must finish the same generation budget at least 1.5× faster than serial
// se while staying within a few percent of its schedule quality. The
// measured gap is ~3× (see BenchmarkShardedVsSerialAllocation), so the
// 1.5× bar leaves ample room for loaded CI machines; the medians of three
// alternated runs of each keep one slow run from deciding it.
func TestShardedAllocationBeatsSerialWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock comparison")
	}
	if raceEnabled {
		t.Skip("race-detector scheduling overhead distorts wall-clock ratios")
	}
	w := xlargeWorkload(t)
	const iters, shards = 25, 6

	if p := shard.PartitionLevelBands(w.Graph, shards); p.NumRegions() < 4 {
		t.Fatalf("partition produced %d regions, want >= 4", p.NumRegions())
	}

	// Three runs of each, alternated, compared by their medians: a single
	// pair is at the mercy of whatever else loads the host (go test ./...
	// builds and runs other packages beside this one).
	const runs = 3
	var serial, sharded *scheduler.Result
	var serialTimes, shardedTimes []time.Duration
	for i := 0; i < runs; i++ {
		res, took := timedRun(t, w, "se", iters,
			scheduler.WithSeed(1), scheduler.WithY(4))
		serial, serialTimes = res, append(serialTimes, took)
		res, took = timedRun(t, w, "se-shard", iters,
			scheduler.WithSeed(1), scheduler.WithY(4), scheduler.WithShards(shards))
		sharded, shardedTimes = res, append(shardedTimes, took)
		t.Logf("run %d: serial %v, sharded %v", i, serialTimes[i], shardedTimes[i])
	}
	slices.Sort(serialTimes)
	slices.Sort(shardedTimes)
	serialTime, shardedTime := serialTimes[runs/2], shardedTimes[runs/2]

	if err := schedule.Validate(sharded.Best, w.Graph, w.System); err != nil {
		t.Fatalf("sharded best is invalid: %v", err)
	}
	speedup := float64(serialTime) / float64(shardedTime)
	t.Logf("median serial %v (makespan %.0f) vs median sharded %v (makespan %.0f): %.2fx",
		serialTime, serial.Makespan, shardedTime, sharded.Makespan, speedup)
	if speedup < 1.5 {
		t.Errorf("sharded speedup = %.2fx, want >= 1.5x", speedup)
	}
	// Both runs are deterministic, so these are fixed relations, not
	// flaky bounds: sharding must not give up the schedule quality the
	// regions' faster convergence buys (it currently beats serial), and
	// the machine-level work ledger must show the same ≥1.5× saving the
	// wall clock does (currently 2.3× fewer gene steps) — the
	// clock-independent backstop of the speedup claim.
	if sharded.Makespan > serial.Makespan*1.05 {
		t.Errorf("sharded makespan %.0f more than 5%% worse than serial %.0f",
			sharded.Makespan, serial.Makespan)
	}
	if float64(sharded.GenesEvaluated)*1.5 > float64(serial.GenesEvaluated) {
		t.Errorf("sharded evaluated %d genes, serial %d — want >= 1.5x fewer",
			sharded.GenesEvaluated, serial.GenesEvaluated)
	}
}
