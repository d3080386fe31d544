// Distributed fan-out acceptance test: the wall-clock claim README's
// "Multi-machine" section makes for se-dist, pinned on the same 500-task
// preset the sharding acceptance test measures. Importing internal/dist
// registers se-dist, so the doc-sync guards also hold the README to the
// grown registry.
package repro_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	_ "repro/internal/dist"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// startDistWorker brings up one in-process mshd worker over real HTTP.
func startDistWorker(t testing.TB) *httptest.Server {
	t.Helper()
	mgr := serve.NewManager(serve.Options{})
	srv := httptest.NewServer(serve.NewServer(mgr))
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv
}

// TestDistributedFanOutBeatsSerialWallClock enforces the distributed
// speedup: se-dist dispatching 6 regions to two local mshd workers must
// finish the same generation budget faster than serial se, stay
// bit-identical to the in-process se-shard sweep it distributes, and keep
// serial's schedule quality. The regions carry the real work, so even
// with HTTP/JSON and a snapshot round-trip per batched round the fan-out
// keeps most of the ~3x sharding win; the 1.3x bar leaves room for
// loaded CI machines, and the medians of five alternated runs of each
// (medianSpeedup) keep one slow run from deciding it.
func TestDistributedFanOutBeatsSerialWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock comparison")
	}
	if raceEnabled {
		t.Skip("race-detector scheduling overhead distorts wall-clock ratios")
	}
	w := xlargeWorkload(t)
	const iters, shards, batch = 25, 6, 5

	srvA := startDistWorker(t)
	srvB := startDistWorker(t)

	var serial *scheduler.Result
	var dist scheduler.Result
	speedup := medianSpeedup(t, func() (took time.Duration) {
		serial, took = timedRun(t, w, "se", iters,
			scheduler.WithSeed(1), scheduler.WithY(4))
		return took
	}, func() time.Duration {
		// Drive se-dist through the registry's resumable surface so the
		// budget is exact: iters/batch rounds at batch generations each
		// is the same iters generations serial executes.
		ds, err := scheduler.Open("se-dist", w.Graph, w.System,
			scheduler.WithSeed(1), scheduler.WithY(4), scheduler.WithShards(shards),
			scheduler.WithRoundBatch(batch), scheduler.WithWorkerURLs(srvA.URL, srvB.URL))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < iters/batch; i++ {
			if _, more := ds.Step(context.Background()); !more {
				t.Fatalf("se-dist done after %d rounds", i)
			}
		}
		dist = ds.Best()
		return time.Since(start)
	})

	if err := schedule.Validate(dist.Best, w.Graph, w.System); err != nil {
		t.Fatalf("distributed best is invalid: %v", err)
	}

	// Where generations run never changes what they compute: the
	// distributed run is the sharded run, bit for bit.
	ss, err := scheduler.Open("se-shard", w.Graph, w.System,
		scheduler.WithSeed(1), scheduler.WithY(4), scheduler.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		ss.Step(context.Background())
	}
	sharded := ss.Best()
	if dist.Makespan != sharded.Makespan || dist.Best.Format() != sharded.Best.Format() {
		t.Errorf("se-dist makespan %.0f differs from se-shard %.0f", dist.Makespan, sharded.Makespan)
	}
	if dist.GenesEvaluated != sharded.GenesEvaluated {
		t.Errorf("se-dist evaluated %d genes, se-shard %d — effort ledger drifted",
			dist.GenesEvaluated, sharded.GenesEvaluated)
	}

	t.Logf("serial makespan %.0f vs distributed %.0f: %.2fx", serial.Makespan, dist.Makespan, speedup)
	if speedup < 1.3 {
		t.Errorf("distributed speedup = %.2fx, want >= 1.3x", speedup)
	}
	if dist.Makespan > serial.Makespan*1.05 {
		t.Errorf("distributed makespan %.0f more than 5%% worse than serial %.0f",
			dist.Makespan, serial.Makespan)
	}
}
