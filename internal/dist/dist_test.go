package dist_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/snap"
	"repro/internal/workload"
)

// startWorker spins up one in-process mshd worker over real HTTP.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	mgr := serve.NewManager(serve.Options{})
	srv := httptest.NewServer(serve.NewServer(mgr))
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv
}

// stepAll drives a registry search n steps and returns its result.
func stepAll(t *testing.T, s scheduler.Search, n int) scheduler.Result {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, more := s.Step(ctx); !more {
			t.Fatalf("search done after %d steps", i)
		}
	}
	return s.Best()
}

// requireSameResult asserts bit-identical outcomes: makespan, solution
// string, and the evaluation-effort ledger.
func requireSameResult(t *testing.T, label string, got, want scheduler.Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Errorf("%s: makespan %v, want %v", label, got.Makespan, want.Makespan)
	}
	if got.Best.Format() != want.Best.Format() {
		t.Errorf("%s: solutions differ", label)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations %d, want %d", label, got.Iterations, want.Iterations)
	}
	if got.Evaluations != want.Evaluations || got.DeltaEvaluations != want.DeltaEvaluations || got.GenesEvaluated != want.GenesEvaluated {
		t.Errorf("%s: eval counts (%d,%d,%d), want (%d,%d,%d)", label,
			got.Evaluations, got.DeltaEvaluations, got.GenesEvaluated,
			want.Evaluations, want.DeltaEvaluations, want.GenesEvaluated)
	}
}

const (
	testPreset = "large"
	testShards = 3
	testSeed   = int64(7)
	testRounds = 30
)

// count reads one of the coordinator's counters off the registry it
// registered on.
func count(reg *obs.Registry, name string) uint64 {
	return reg.Counter(name, "").Value()
}

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Preset(testPreset)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func openShardBaseline(t *testing.T, w *workload.Workload) scheduler.Search {
	t.Helper()
	s, err := scheduler.Open("se-shard", w.Graph, w.System,
		scheduler.WithShards(testShards), scheduler.WithSeed(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLocalModeMatchesSeShard pins the in-process fallback: se-dist with
// no workers is the same computation as se-shard, bit for bit, after
// every round. The reference restores se-shard's snapshot each round, so
// it reconciles from scratch while se-dist's Best may reuse the sharded
// engine's last reconciliation.
func TestLocalModeMatchesSeShard(t *testing.T) {
	// The medium class keeps a from-scratch reconciliation per round
	// cheap.
	w, err := workload.Preset("medium")
	if err != nil {
		t.Fatal(err)
	}
	open := func(algo string) scheduler.Search {
		s, err := scheduler.Open(algo, w.Graph, w.System,
			scheduler.WithShards(4), scheduler.WithSeed(testSeed))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ds, ss := open("se-dist"), open("se-shard")
	ctx := context.Background()
	for i := 0; i < testRounds; i++ {
		ds.Step(ctx)
		ss.Step(ctx)
		data, err := ss.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := scheduler.Restore("se-shard", data, w.Graph, w.System)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("round %d: local-mode se-dist vs se-shard", i), ds.Best(), fresh.Best())
	}
}

// TestSingleWorkerMatchesSeShard is the tentpole's equivalence claim:
// dispatching every region to one remote worker and stepping over HTTP
// computes exactly what the in-process sharded sweep computes — same
// per-round observations, same final solution, same effort ledger.
func TestSingleWorkerMatchesSeShard(t *testing.T) {
	w := testWorkload(t)
	srv := startWorker(t)
	ds, err := scheduler.Open("se-dist", w.Graph, w.System,
		scheduler.WithShards(testShards), scheduler.WithSeed(testSeed),
		scheduler.WithWorkerURLs(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	ss := openShardBaseline(t, w)
	ctx := context.Background()
	for i := 0; i < testRounds; i++ {
		dp, _ := ds.Step(ctx)
		sp, _ := ss.Step(ctx)
		if dp.Current != sp.Current || dp.Best != sp.Best || dp.Selected != sp.Selected {
			t.Fatalf("round %d: progress (%v,%v,%d) vs se-shard (%v,%v,%d)",
				i, dp.Current, dp.Best, dp.Selected, sp.Current, sp.Best, sp.Selected)
		}
	}
	requireSameResult(t, "single-worker se-dist vs se-shard", ds.Best(), ss.Best())
}

// TestRoundBatchMatchesSeShard: batching N generations per RPC changes
// the RPC count, not the computation — N rounds at batch B equal N*B
// se-shard steps.
func TestRoundBatchMatchesSeShard(t *testing.T) {
	const batch = 5
	w := testWorkload(t)
	srv := startWorker(t)
	ds, err := scheduler.Open("se-dist", w.Graph, w.System,
		scheduler.WithShards(testShards), scheduler.WithSeed(testSeed),
		scheduler.WithWorkerURLs(srv.URL), scheduler.WithRoundBatch(batch))
	if err != nil {
		t.Fatal(err)
	}
	want := stepAll(t, openShardBaseline(t, w), testRounds)
	got := stepAll(t, ds, testRounds/batch)
	requireSameResult(t, "batched se-dist vs se-shard", got, want)
}

// TestWorkerKillRecovery is the fault-injection contract: with two
// workers, killing one mid-run re-dispatches its regions' last snapshots
// to the survivor, and the finished makespan and gene counts are
// bit-identical to an uninterrupted run (which is itself bit-identical to
// se-shard).
func TestWorkerKillRecovery(t *testing.T) {
	w := testWorkload(t)
	want := stepAll(t, openShardBaseline(t, w), testRounds)

	srvA := startWorker(t)
	srvB := startWorker(t)
	reg := obs.NewRegistry()
	e, err := dist.NewEngine(w.Graph, w.System, dist.Options{
		Shard:      shard.Options{Shards: testShards, Seed: testSeed},
		WorkerURLs: []string{srvA.URL, srvB.URL},
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Remote() {
		t.Fatal("engine is not in remote mode")
	}
	const killAt = 3
	for i := 0; i < testRounds; i++ {
		if i == killAt {
			// SIGKILL-equivalent: drop the listener and every live
			// connection between rounds.
			srvA.CloseClientConnections()
			srvA.Close()
		}
		e.Step()
	}
	got, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "worker-kill recovery vs se-shard", *got, want)

	if count(reg, "dist_retries_total") == 0 && count(reg, "dist_redispatches_total") == 0 &&
		count(reg, "dist_local_steps_total") == 0 {
		t.Error("killing a worker exercised no recovery path")
	}
	if got := count(reg, "dist_rounds_total"); got != testRounds {
		t.Errorf("rounds = %d, want %d", got, testRounds)
	}
}

// TestSnapshotRestoreContinuesBitIdentically: an se-dist run snapshotted
// after a remote prefix and restored (in-process — worker URLs are
// runtime configuration, not search state) finishes exactly like an
// uninterrupted run.
func TestSnapshotRestoreContinuesBitIdentically(t *testing.T) {
	w := testWorkload(t)
	srv := startWorker(t)
	open := func() scheduler.Search {
		s, err := scheduler.Open("se-dist", w.Graph, w.System,
			scheduler.WithShards(testShards), scheduler.WithSeed(testSeed),
			scheduler.WithWorkerURLs(srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := stepAll(t, open(), testRounds)

	cut := open()
	stepAll(t, cut, testRounds/2)
	data, err := cut.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := scheduler.Restore("se-dist", data, w.Graph, w.System)
	if err != nil {
		t.Fatal(err)
	}
	got := stepAll(t, restored, testRounds-testRounds/2)
	requireSameResult(t, "snapshot/restore se-dist", got, want)
}

// TestRestoreCapsRoundBatch: a restored coordinator's round batch obeys
// the same per-request step cap NewEngine enforces, so a crafted snapshot
// cannot make one Step run an unbounded number of generations per region.
func TestRestoreCapsRoundBatch(t *testing.T) {
	w := testWorkload(t)
	s, err := scheduler.Open("se-dist", w.Graph, w.System,
		scheduler.WithShards(testShards), scheduler.WithSeed(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := scheduler.EnvelopePayload(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.NewReader(payload, "DSEN", 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Int() // the round batch
	inner := r.Blob()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	withBatch := func(batch int) []byte {
		pw := snap.NewWriter("DSEN", 1)
		pw.Int(batch)
		pw.Blob(inner)
		return scheduler.Envelope("se-dist", w.Graph.NumTasks(), w.System.NumMachines(), w.Graph.NumItems(), pw.Bytes())
	}
	if _, err := scheduler.Restore("se-dist", withBatch(serve.MaxStepsPerRequest), w.Graph, w.System); err != nil {
		t.Fatalf("batch at the cap rejected: %v", err)
	}
	for _, batch := range []int{0, serve.MaxStepsPerRequest + 1, 1 << 40} {
		if _, err := scheduler.Restore("se-dist", withBatch(batch), w.Graph, w.System); err == nil {
			t.Errorf("batch %d restored, want an error", batch)
		}
	}
}

// TestRestoredEngineMetrics: a restored coordinator keeps its instruments
// on a private registry, so stepping it never dereferences missing
// bookkeeping.
func TestRestoredEngineMetrics(t *testing.T) {
	w := testWorkload(t)
	e, err := dist.NewEngine(w.Graph, w.System, dist.Options{
		Shard: shard.Options{Shards: testShards, Seed: testSeed},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	data, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := dist.RestoreEngine(data, w.Graph, w.System)
	if err != nil {
		t.Fatal(err)
	}
	restored.Step()
}

// TestMetricsAccounting sanity-checks the transport counters on a clean
// two-worker run: one RPC per region per round, snapshot bytes flowing
// every round, no retries.
func TestMetricsAccounting(t *testing.T) {
	w := testWorkload(t)
	srvA := startWorker(t)
	srvB := startWorker(t)
	reg := obs.NewRegistry()
	e, err := dist.NewEngine(w.Graph, w.System, dist.Options{
		Shard:      shard.Options{Shards: testShards, Seed: testSeed},
		WorkerURLs: []string{srvA.URL, srvB.URL},
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		e.Step()
	}
	if got, want := count(reg, "dist_rpcs_total"), uint64(rounds*e.Regions()); got != want {
		t.Errorf("RPCs = %d, want %d (hedges %d, retries %d)", got, want,
			count(reg, "dist_hedges_total"), count(reg, "dist_retries_total"))
	}
	if count(reg, "dist_snapshot_bytes_total") == 0 {
		t.Error("snapshot bytes = 0, want > 0")
	}
	if got := count(reg, "dist_local_steps_total"); got != 0 {
		t.Errorf("local steps = %d on a healthy pool, want 0", got)
	}
}

// startDelayableWorker is startWorker plus a switchable straggler valve:
// while delay holds a nonzero duration, step RPCs sleep that long before
// being served — slow, never failing, exactly what hedging targets.
func startDelayableWorker(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	mgr := serve.NewManager(serve.Options{})
	inner := serve.NewServer(mgr)
	var delay atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := time.Duration(delay.Load()); d > 0 && strings.HasSuffix(r.URL.Path, "/search/step") {
			time.Sleep(d)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		delay.Store(0)
		srv.Close()
		mgr.Close()
	})
	return srv, &delay
}

// TestHedgedStragglerRaceSafeTotals is the race-safety contract of the
// lock-free instruments: a worker turned straggler forces concurrent
// hedges while another goroutine scrapes the registry mid-round, and
// every region round must still be accounted exactly once — no lost or
// torn counter update (CI's -race job runs this). The computation itself
// stays bit-identical to se-shard: hedging changes where a round runs,
// never what it computes.
func TestHedgedStragglerRaceSafeTotals(t *testing.T) {
	const rounds = 12
	const warmRounds = 2
	w := testWorkload(t)
	want := stepAll(t, openShardBaseline(t, w), rounds)

	srvA, delay := startDelayableWorker(t)
	srvB := startWorker(t)
	reg := obs.NewRegistry()
	e, err := dist.NewEngine(w.Graph, w.System, dist.Options{
		Shard:      shard.Options{Shards: testShards, Seed: testSeed},
		WorkerURLs: []string{srvA.URL, srvB.URL},
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Scrape concurrently with the rounds: the exporters must read cleanly
	// against in-flight increments.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.WritePrometheus(io.Discard)
			}
		}
	}()

	// Warm rounds build every worker's latency EWMA — hedging stays
	// disabled until a baseline exists. Then the straggler valve closes:
	// regions hosted on the slow worker hedge to the fast one, adopt it,
	// and the run continues undisturbed.
	for i := 0; i < warmRounds; i++ {
		e.Step()
	}
	delay.Store(int64(2 * time.Second))
	for i := warmRounds; i < rounds; i++ {
		e.Step()
	}
	close(stop)
	wg.Wait()

	if count(reg, "dist_hedges_total") == 0 {
		t.Error("straggling worker triggered no hedges")
	}
	if got := count(reg, "dist_rounds_total"); got != rounds {
		t.Errorf("rounds = %d, want %d", got, rounds)
	}
	if got, want := count(reg, "dist_rpcs_total"), uint64(rounds*e.Regions()); got != want {
		t.Errorf("RPCs = %d, want exactly %d — every region round accepted once (hedges %d, retries %d)",
			got, want, count(reg, "dist_hedges_total"), count(reg, "dist_retries_total"))
	}
	if got := count(reg, "dist_local_steps_total"); got != 0 {
		t.Errorf("local steps = %d, want 0 (the straggler is slow, not dead)", got)
	}

	got, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "hedged straggler vs se-shard", *got, want)

	// The registry carries the transport totals and the per-worker gauges
	// the acceptance scrape looks for.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, name := range []string{
		"dist_rounds_total", "dist_rpcs_total", "dist_hedges_total",
		"dist_round_duration_seconds_bucket", "dist_worker_healthy",
		"dist_worker_latency_seconds", "dist_worker_load",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("registry exposition missing %s", name)
		}
	}
}
