package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func testParams(seed int64) workload.Params {
	return workload.Params{
		Tasks: 24, Machines: 5, Connectivity: 2.5, Heterogeneity: 6, CCR: 0.5, Seed: seed,
	}
}

func newTestServer(t *testing.T, opts serve.Options) (*serve.Client, *serve.Manager) {
	t.Helper()
	mgr := serve.NewManager(opts)
	srv := httptest.NewServer(serve.NewServer(mgr))
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return serve.NewClient(srv.URL), mgr
}

// offline runs the same (algorithm, seed, budget) directly through the
// scheduler registry — the reference the service must match bit-for-bit.
func offline(t *testing.T, w *workload.Workload, algo string, seed int64, iters int) *scheduler.Result {
	t.Helper()
	res, err := openDrive(w, algo, scheduler.Budget{MaxIterations: iters}, scheduler.WithSeed(seed))
	if err != nil {
		t.Fatalf("offline %s: %v", algo, err)
	}
	return res
}

// openDrive opens algo on w and drives it to b in-process.
func openDrive(w *workload.Workload, algo string, b scheduler.Budget, opts ...scheduler.Option) (*scheduler.Result, error) {
	s, err := scheduler.Open(algo, w.Graph, w.System, opts...)
	if err != nil {
		return nil, err
	}
	return scheduler.Drive(context.Background(), s, b)
}

// TestServiceMatchesOfflineRuns is the service determinism contract: for
// any (workload, algorithm, seed, budget), a run through the HTTP service
// returns a bit-identical solution string and makespan to the offline
// scheduler call.
func TestServiceMatchesOfflineRuns(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()

	p := testParams(11)
	w := workload.MustGenerate(p)
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}

	for _, algo := range []string{"se", "ga", "sa", "tabu", "heft", "minmin", "random"} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s-seed%d", algo, seed), func(t *testing.T) {
				want := offline(t, w, algo, seed, 25)
				got, err := client.Run(ctx, info.ID, serve.RunRequest{
					Algorithm: algo, Seed: seed, MaxIterations: 25,
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if got.Makespan != want.Makespan {
					t.Errorf("service makespan = %v, offline = %v (must be bit-identical)", got.Makespan, want.Makespan)
				}
				if got.Solution != want.Best.Format() {
					t.Errorf("service solution differs from offline:\n  service: %s\n  offline: %s", got.Solution, want.Best.Format())
				}
				if got.Iterations != want.Iterations {
					t.Errorf("service iterations = %d, offline = %d", got.Iterations, want.Iterations)
				}
				if got.Evaluations != want.Evaluations || got.GenesEvaluated != want.GenesEvaluated {
					t.Errorf("service counters (%d evals, %d genes) differ from offline (%d, %d)",
						got.Evaluations, got.GenesEvaluated, want.Evaluations, want.GenesEvaluated)
				}
			})
		}
	}
}

// TestShardedRunMatchesOffline extends the determinism contract to
// sharded sessions: a se-shard run fans out to per-region workers inside
// the service, and its merged result must still be bit-identical to the
// offline run with the same shard count, seed and budget.
func TestShardedRunMatchesOffline(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()

	p := workload.Params{
		Tasks: 60, Machines: 6, Connectivity: 2.5, Heterogeneity: 6, CCR: 0.5, Seed: 19,
	}
	w := workload.MustGenerate(p)
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for _, shards := range []int{1, 4} {
		want, err := openDrive(w, "se-shard", scheduler.Budget{MaxIterations: 20},
			scheduler.WithSeed(5), scheduler.WithShards(shards))
		if err != nil {
			t.Fatalf("offline se-shard: %v", err)
		}
		got, err := client.Run(ctx, info.ID, serve.RunRequest{
			Algorithm: "se-shard", Seed: 5, Shards: shards, MaxIterations: 20,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got.Makespan != want.Makespan || got.Solution != want.Best.Format() {
			t.Errorf("shards=%d: served result differs from offline:\n  service: %v %s\n  offline: %v %s",
				shards, got.Makespan, got.Solution, want.Makespan, want.Best.Format())
		}
		if got.Evaluations != want.Evaluations || got.GenesEvaluated != want.GenesEvaluated {
			t.Errorf("shards=%d: served counters (%d, %d) differ from offline (%d, %d)",
				shards, got.Evaluations, got.GenesEvaluated, want.Evaluations, want.GenesEvaluated)
		}
	}
}

// TestStreamedRunMatchesUnstreamed: streamed progress observation must not
// change what the algorithm computes.
func TestStreamedRunMatchesUnstreamed(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()

	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "small"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	req := serve.RunRequest{Algorithm: "se", Seed: 3, MaxIterations: 40}
	plain, err := client.Run(ctx, info.ID, req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var events int
	streamed, err := client.RunStream(ctx, info.ID, req, func(serve.ProgressEvent) { events++ })
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if streamed.Makespan != plain.Makespan || streamed.Solution != plain.Solution {
		t.Errorf("streamed run differs from plain run: %v vs %v", streamed.Makespan, plain.Makespan)
	}
}

// TestStreamedRunDeliversFinalProgress: the server throttles progress
// events, but the last executed iteration must reach the client even
// when it lands inside the throttle window — a client watching the
// stream has to see where the run actually ended.
func TestStreamedRunDeliversFinalProgress(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()

	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "small"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	// A short fast run: nearly every iteration lands inside the 100ms
	// throttle window, so without the final flush the stream would end on
	// iteration 1.
	const iters = 60
	var last serve.ProgressEvent
	var events int
	res, err := client.RunStream(ctx, info.ID,
		serve.RunRequest{Algorithm: "se", Seed: 8, MaxIterations: iters},
		func(p serve.ProgressEvent) { last = p; events++ })
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if events == 0 {
		t.Fatal("stream delivered no progress events")
	}
	// Progress iterations are 0-indexed, so the final one is count-1.
	if last.Iteration != res.Iterations-1 {
		t.Fatalf("last streamed progress is iteration %d, want the final iteration %d", last.Iteration, res.Iterations-1)
	}
}

// TestConcurrentSessionsAreIsolatedAndDeterministic runs many sessions in
// parallel — distinct workloads, interleaved requests — and requires every
// one to match its own offline reference exactly.
func TestConcurrentSessionsAreIsolatedAndDeterministic(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			p := testParams(int64(100 + i))
			w := workload.MustGenerate(p)
			info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
			if err != nil {
				errs <- fmt.Errorf("session %d: create: %w", i, err)
				return
			}
			seed := int64(i + 1)
			want := func() *scheduler.Result {
				res, err := openDrive(w, "se", scheduler.Budget{MaxIterations: 20}, scheduler.WithSeed(seed))
				if err != nil {
					panic(err)
				}
				return res
			}()
			for rep := 0; rep < 3; rep++ {
				got, err := client.Run(ctx, info.ID, serve.RunRequest{
					Algorithm: "se", Seed: seed, MaxIterations: 20,
				})
				if err != nil {
					errs <- fmt.Errorf("session %d rep %d: run: %w", i, rep, err)
					return
				}
				if got.Makespan != want.Makespan || got.Solution != want.Best.Format() {
					errs <- fmt.Errorf("session %d rep %d: served result diverged from offline", i, rep)
					return
				}
				// Interleave a status read and a move query to stress
				// cross-session parallelism with same-session serialization.
				if _, err := client.Session(ctx, info.ID); err != nil {
					errs <- fmt.Errorf("session %d: info: %w", i, err)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestMoveQueryAndCommit exercises the pinned-evaluator endpoints: a move
// query must answer exactly what materializing the move would, and a
// commit must rebase the session onto it.
func TestMoveQueryAndCommit(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()

	p := testParams(5)
	w := workload.MustGenerate(p)
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}

	sched, err := client.Schedule(ctx, info.ID)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	base, err := schedule.Parse(sched.Solution)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sched.Solution, err)
	}
	if err := schedule.Validate(base, w.Graph, w.System); err != nil {
		t.Fatalf("served base is invalid: %v", err)
	}
	ev := schedule.NewEvaluator(w.Graph, w.System)
	if got := ev.Makespan(base); got != sched.Makespan {
		t.Fatalf("served base makespan %v, evaluator says %v", sched.Makespan, got)
	}

	// Query a handful of valid moves and check each against the evaluator
	// on the materialized moved string.
	pos := make([]int, len(base))
	base.Positions(pos)
	checked := 0
	for idx := 0; idx < len(base) && checked < 6; idx += 4 {
		lo, hi := schedule.ValidRange(w.Graph, base, pos, idx)
		q := (lo + hi) / 2
		m := (int(base[idx].Machine) + 1) % w.System.NumMachines()
		resp, err := client.Move(ctx, info.ID, serve.MoveRequest{Index: idx, To: q, Machine: m})
		if err != nil {
			t.Fatalf("Move(%d→%d,m%d): %v", idx, q, m, err)
		}
		moved := schedule.Moved(base, idx, q, taskgraph.MachineID(m))
		if want := ev.Makespan(moved); resp.Makespan != want {
			t.Errorf("move (%d→%d,m%d): served makespan %v, evaluator %v", idx, q, m, resp.Makespan, want)
		}
		if resp.Committed {
			t.Error("query-only move reported Committed")
		}
		checked++
	}

	// Commit one move and verify the session's base string follows it.
	idx := 0
	lo, hi := schedule.ValidRange(w.Graph, base, pos, idx)
	q := hi
	_ = lo
	m := (int(base[idx].Machine) + 1) % w.System.NumMachines()
	resp, err := client.Move(ctx, info.ID, serve.MoveRequest{Index: idx, To: q, Machine: m, Commit: true})
	if err != nil {
		t.Fatalf("commit move: %v", err)
	}
	if !resp.Committed {
		t.Fatal("commit move not reported as committed")
	}
	moved := schedule.Moved(base, idx, q, taskgraph.MachineID(m))
	if want := ev.Makespan(moved); resp.BaseMakespan != want {
		t.Errorf("post-commit base makespan %v, evaluator %v", resp.BaseMakespan, want)
	}
	after, err := client.Schedule(ctx, info.ID)
	if err != nil {
		t.Fatalf("Schedule after commit: %v", err)
	}
	if after.Solution != moved.Format() {
		t.Errorf("post-commit base = %s, want %s", after.Solution, moved.Format())
	}
}

// TestMoveValidation: out-of-range and dependency-violating moves are
// rejected with 400s, not applied.
func TestMoveValidation(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "figure1"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for name, req := range map[string]serve.MoveRequest{
		"index-negative":  {Index: -1, To: 0, Machine: 0},
		"index-too-big":   {Index: 999, To: 0, Machine: 0},
		"machine-too-big": {Index: 0, To: 0, Machine: 99},
		"to-out-of-range": {Index: 0, To: 9999, Machine: 0},
	} {
		if _, err := client.Move(ctx, info.ID, req); err == nil {
			t.Errorf("%s: accepted invalid move %+v", name, req)
		} else if !strings.Contains(err.Error(), "400") {
			t.Errorf("%s: error %v, want a 400", name, err)
		}
	}
}

func TestCreateSessionValidation(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()
	p := testParams(1)
	for name, req := range map[string]serve.CreateSessionRequest{
		"no-source":      {},
		"two-sources":    {Preset: "small", Params: &p},
		"unknown-preset": {Preset: "nope"},
		"bad-workload":   {Workload: json.RawMessage(`{"tasks": []}`)},
		"bad-initial":    {Preset: "figure1", Initial: "not a solution"},
		"invalid-initial-semantics": {
			Preset: "figure1",
			// Syntactically fine but machine out of range for figure1.
			Initial: "s0 m99 | s1 m0 | s2 m0 | s3 m0 | s4 m0 | s5 m0 | s6 m0",
		},
	} {
		if _, err := client.CreateSession(ctx, req); err == nil {
			t.Errorf("%s: CreateSession accepted invalid request", name)
		} else if !strings.Contains(err.Error(), "400") {
			t.Errorf("%s: error %v, want a 400", name, err)
		}
	}
}

// TestSessionLifecycle: create → info → list → delete → 404.
func TestSessionLifecycle(t *testing.T) {
	client, mgr := newTestServer(t, serve.Options{})
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}
	algos, err := client.Algorithms(ctx)
	if err != nil || len(algos) == 0 {
		t.Fatalf("Algorithms: %v (%d entries)", err, len(algos))
	}

	a, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "figure1"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	b, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "small"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if a.ID == b.ID {
		t.Fatalf("duplicate session IDs: %s", a.ID)
	}
	if a.BaseMakespan <= 0 || a.BaseMakespan < a.LowerBound {
		t.Errorf("base makespan %v vs lower bound %v", a.BaseMakespan, a.LowerBound)
	}
	listed, err := client.ListSessions(ctx)
	if err != nil || len(listed) != 2 {
		t.Fatalf("ListSessions: %v (%d entries, want 2)", err, len(listed))
	}
	if mgr.Len() != 2 {
		t.Fatalf("Manager.Len() = %d, want 2", mgr.Len())
	}

	gantt, err := client.Gantt(ctx, a.ID, 40)
	if err != nil || !strings.Contains(gantt, "schedule length") {
		t.Errorf("Gantt: %v (%q)", err, gantt)
	}
	analysis, err := client.Analysis(ctx, a.ID)
	if err != nil || analysis.Analysis.Makespan != a.BaseMakespan {
		t.Errorf("Analysis: %v (makespan %v, want %v)", err, analysis.Analysis.Makespan, a.BaseMakespan)
	}

	if err := client.DeleteSession(ctx, a.ID); err != nil {
		t.Fatalf("DeleteSession: %v", err)
	}
	if _, err := client.Session(ctx, a.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("Session after delete: err = %v, want 404", err)
	}
	if err := client.DeleteSession(ctx, a.ID); err == nil {
		t.Error("double delete reported no error")
	}
}

// TestRunImprovesSessionBest: the session pins the best solution across
// runs, so the base makespan is monotone non-increasing and FromBase runs
// start where the last one ended.
func TestRunImprovesSessionBest(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "small"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	createBase := info.BaseMakespan
	res, err := client.Run(ctx, info.ID, serve.RunRequest{
		Algorithm: "se", Seed: 1, MaxIterations: 60, FromBase: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	after, err := client.Session(ctx, info.ID)
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if after.BestMakespan > createBase {
		t.Errorf("best makespan %v worse than the constructive base %v", after.BestMakespan, createBase)
	}
	if after.BaseMakespan != after.BestMakespan {
		t.Errorf("base %v not re-pinned to best %v", after.BaseMakespan, after.BestMakespan)
	}
	if after.Runs != 1 {
		t.Errorf("Runs = %d, want 1", after.Runs)
	}
	if res.Makespan > createBase {
		t.Errorf("FromBase run (%v) regressed below its seed solution (%v)", res.Makespan, createBase)
	}
}

// TestRunRequiresStoppingCriterion: a metaheuristic run with no bound is a
// 400, not an unbounded server-side loop.
func TestRunRequiresStoppingCriterion(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "figure1"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := client.Run(ctx, info.ID, serve.RunRequest{Algorithm: "se", Seed: 1}); err == nil {
		t.Error("unbounded metaheuristic run was accepted")
	}
	// Constructive heuristics need no bound.
	if _, err := client.Run(ctx, info.ID, serve.RunRequest{Algorithm: "heft"}); err != nil {
		t.Errorf("heft run without budget: %v", err)
	}
	if _, err := client.Run(ctx, info.ID, serve.RunRequest{Algorithm: "no-such-algo", MaxIterations: 5}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestDeleteCancelsInFlightRun: tearing a session down mid-run stops the
// run promptly; the session is gone afterwards.
func TestDeleteCancelsInFlightRun(t *testing.T) {
	_, mgr := newTestServer(t, serve.Options{})
	info, err := mgr.Create(serve.CreateSessionRequest{Preset: "small"})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	type outcome struct {
		res serve.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := mgr.Run(context.Background(), info.ID, serve.RunRequest{
			Algorithm: "se", Seed: 1, TimeBudgetMS: 60_000,
		}, nil)
		done <- outcome{res, err}
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if err := mgr.Delete(info.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("Delete blocked %v behind the in-flight run", waited)
	}
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("cancelled run returned error %v, want best-so-far result", o.err)
		}
		if !o.res.Cancelled {
			t.Error("cancelled run's result not marked Cancelled")
		}
		if o.res.Makespan <= 0 || o.res.Solution == "" {
			t.Errorf("cancelled run returned empty best-so-far: %+v", o.res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after session deletion")
	}
	if _, err := mgr.Info(info.ID); err == nil {
		t.Error("session still live after Delete")
	}
}

// TestLRUCapEvictsOldest: creating past MaxSessions evicts the
// least-recently-used session.
func TestLRUCapEvictsOldest(t *testing.T) {
	client, mgr := newTestServer(t, serve.Options{MaxSessions: 2})
	ctx := context.Background()
	a, _ := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "figure1"})
	b, _ := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "figure1"})
	// Touch a so that b becomes the LRU.
	if _, err := client.Schedule(ctx, a.ID); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	c, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "figure1"})
	if err != nil {
		t.Fatalf("CreateSession over cap: %v", err)
	}
	if mgr.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (cap)", mgr.Len())
	}
	if _, err := client.Session(ctx, b.ID); err == nil {
		t.Error("LRU session survived the cap eviction")
	}
	for _, id := range []string{a.ID, c.ID} {
		if _, err := client.Session(ctx, id); err != nil {
			t.Errorf("session %s unexpectedly evicted: %v", id, err)
		}
	}
}

// TestIdleEviction: sessions idle past IdleTimeout are torn down by the
// background loop.
func TestIdleEviction(t *testing.T) {
	client, mgr := newTestServer(t, serve.Options{IdleTimeout: 30 * time.Millisecond})
	ctx := context.Background()
	if _, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "figure1"}); err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := mgr.Len(); n != 0 {
		t.Fatalf("idle session not evicted after timeout (Len = %d)", n)
	}
}

// TestUploadedWorkloadSession: a session created from an uploaded workload
// document answers with the same makespans as the local workload.
func TestUploadedWorkloadSession(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()
	w := workload.MustGenerate(testParams(77))
	var buf strings.Builder
	if err := workload.Encode(&buf, w); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Workload: json.RawMessage(buf.String())})
	if err != nil {
		t.Fatalf("CreateSession(upload): %v", err)
	}
	if info.Tasks != w.Graph.NumTasks() || info.Machines != w.System.NumMachines() {
		t.Fatalf("uploaded session shape %d/%d, want %d/%d",
			info.Tasks, info.Machines, w.Graph.NumTasks(), w.System.NumMachines())
	}
	want := offline(t, w, "tabu", 2, 15)
	got, err := client.Run(ctx, info.ID, serve.RunRequest{Algorithm: "tabu", Seed: 2, MaxIterations: 15})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Makespan != want.Makespan || got.Solution != want.Best.Format() {
		t.Errorf("uploaded-workload run diverged from offline reference")
	}
}

func TestUnknownSessionIs404(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()
	if _, err := client.Run(ctx, "nope", serve.RunRequest{Algorithm: "heft"}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("Run on unknown session: err = %v, want 404", err)
	}
	if _, err := client.Session(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("Session on unknown session: err = %v, want 404", err)
	}
}

// TestStreamParamFalseMeansPlainJSON: ?stream=0 and ?stream=false are the
// documented plain-JSON path, not NDJSON.
func TestStreamParamFalseMeansPlainJSON(t *testing.T) {
	mgr := serve.NewManager(serve.Options{})
	srv := httptest.NewServer(serve.NewServer(mgr))
	t.Cleanup(func() { srv.Close(); mgr.Close() })
	client := serve.NewClient(srv.URL)
	ctx := context.Background()
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "figure1"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	for _, q := range []string{"stream=0", "stream=false"} {
		resp, err := http.Post(
			srv.URL+"/v1/sessions/"+info.ID+"/run?"+q, "application/json",
			strings.NewReader(`{"algorithm":"se","seed":1,"max_iterations":10}`))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var res serve.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("%s: decode: %v", q, err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s: Content-Type = %q, want plain JSON", q, ct)
		}
		if res.Makespan <= 0 || res.Solution == "" {
			t.Errorf("%s: response is not a plain Result: %+v", q, res)
		}
	}
}

// TestStalledHeaderIsDisconnected: a client that opens a connection and
// never finishes its request line must be cut off once the header-read
// bound passes, instead of holding the connection and its goroutine
// forever. The server comes from the same helper the daemons use; the
// bound is shortened so the test runs quickly.
func TestStalledHeaderIsDisconnected(t *testing.T) {
	mgr := serve.NewManager(serve.Options{})
	srv := serve.NewHTTPServer("", serve.NewServer(mgr))
	if srv.ReadHeaderTimeout != serve.ReadHeaderTimeout || serve.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the constant %v", srv.ReadHeaderTimeout, serve.ReadHeaderTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
		mgr.Close()
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/healthz HT")); err != nil {
		t.Fatal(err)
	}
	// The server may write an error reply before hanging up; either way
	// the read must reach the end of the stream well before the client's
	// own deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with an unfinished request line not closed by the server: %v", err)
	}
}
