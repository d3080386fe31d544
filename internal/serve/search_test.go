package serve_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/workload"
)

func makeSearchSession(t *testing.T, client *serve.Client, seed int64) (*workload.Workload, serve.SessionInfo) {
	t.Helper()
	ctx := context.Background()
	w := workload.MustGenerate(testParams(seed))
	var buf bytes.Buffer
	if err := workload.Encode(&buf, w); err != nil {
		t.Fatal(err)
	}
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Workload: buf.Bytes()})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	return w, info
}

// TestServedSearchMatchesOffline: a search driven through the HTTP
// step endpoint — in uneven step batches — must reach the bit-identical
// best string and makespan the offline Step loop reaches.
func TestServedSearchMatchesOffline(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()
	const total = 20

	for _, algo := range []string{"se", "ga", "sa", "tabu", "se-shard", "heft"} {
		t.Run(algo, func(t *testing.T) {
			w, info := makeSearchSession(t, client, 41)

			if _, err := client.OpenSearch(ctx, info.ID, serve.RunRequest{Algorithm: algo, Seed: 9, Shards: 2}); err != nil {
				t.Fatalf("OpenSearch: %v", err)
			}
			performed := 0
			for _, batch := range []int{1, 7, 12} { // 20 total, uneven batches
				resp, err := client.StepSearch(ctx, info.ID, serve.StepRequest{Steps: batch})
				if err != nil {
					t.Fatalf("StepSearch: %v", err)
				}
				performed += resp.Performed
				if resp.Done {
					break
				}
			}
			served, err := client.SearchBest(ctx, info.ID)
			if err != nil {
				t.Fatalf("SearchBest: %v", err)
			}

			off, err := scheduler.Open(algo, w.Graph, w.System,
				scheduler.WithSeed(9), scheduler.WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < performed; i++ {
				off.Step(ctx)
			}
			want := off.Best()
			if served.Makespan != want.Makespan || served.Solution != want.Best.Format() {
				t.Errorf("served search diverged from offline: %v vs %v", served.Makespan, want.Makespan)
			}
		})
	}
}

// TestSearchSnapshotResumeOverWire: snapshotting a served search,
// resuming it into a different session, and finishing the budget must be
// bit-identical to the unbroken served search.
func TestSearchSnapshotResumeOverWire(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()

	_, unbroken := makeSearchSession(t, client, 17)
	if _, err := client.OpenSearch(ctx, unbroken.ID, serve.RunRequest{Algorithm: "se", Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StepSearch(ctx, unbroken.ID, serve.StepRequest{Steps: 16}); err != nil {
		t.Fatal(err)
	}
	want, err := client.SearchBest(ctx, unbroken.ID)
	if err != nil {
		t.Fatal(err)
	}

	_, broken := makeSearchSession(t, client, 17)
	if _, err := client.OpenSearch(ctx, broken.ID, serve.RunRequest{Algorithm: "se", Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StepSearch(ctx, broken.ID, serve.StepRequest{Steps: 7}); err != nil {
		t.Fatal(err)
	}
	snap, err := client.SearchSnapshot(ctx, broken.ID)
	if err != nil {
		t.Fatalf("SearchSnapshot: %v", err)
	}

	_, revived := makeSearchSession(t, client, 17)
	resumed, err := client.ResumeSearch(ctx, revived.ID, snap)
	if err != nil {
		t.Fatalf("ResumeSearch: %v", err)
	}
	if resumed.Algorithm != "se" {
		t.Errorf("resumed algorithm = %q", resumed.Algorithm)
	}
	if _, err := client.StepSearch(ctx, revived.ID, serve.StepRequest{Steps: 9}); err != nil {
		t.Fatal(err)
	}
	got, err := client.SearchBest(ctx, revived.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.Solution != want.Solution {
		t.Errorf("snapshot/resume diverged: %v vs unbroken %v", got.Makespan, want.Makespan)
	}
}

// TestEvictReviveBitIdentical is the acceptance contract for session
// eviction: a session — pinned search included — evicted to bytes
// mid-run and revived must finish with results bit-identical to both an
// unbroken served session and the offline Step loop.
func TestEvictReviveBitIdentical(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()
	const total, cut = 18, 8

	// Unbroken served reference.
	w, unbroken := makeSearchSession(t, client, 23)
	if _, err := client.OpenSearch(ctx, unbroken.ID, serve.RunRequest{Algorithm: "tabu", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StepSearch(ctx, unbroken.ID, serve.StepRequest{Steps: total}); err != nil {
		t.Fatal(err)
	}
	want, err := client.SearchBest(ctx, unbroken.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: step, evict to bytes, revive, finish.
	_, victim := makeSearchSession(t, client, 23)
	if _, err := client.OpenSearch(ctx, victim.ID, serve.RunRequest{Algorithm: "tabu", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StepSearch(ctx, victim.ID, serve.StepRequest{Steps: cut}); err != nil {
		t.Fatal(err)
	}
	snap, err := client.Evict(ctx, victim.ID)
	if err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if _, err := client.Session(ctx, victim.ID); err == nil {
		t.Error("evicted session still answers")
	}
	if snap.Search == nil {
		t.Fatal("SessionSnapshot lost the pinned search")
	}

	revived, err := client.Revive(ctx, snap)
	if err != nil {
		t.Fatalf("Revive: %v", err)
	}
	if _, err := client.StepSearch(ctx, revived.ID, serve.StepRequest{Steps: total - cut}); err != nil {
		t.Fatal(err)
	}
	got, err := client.SearchBest(ctx, revived.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.Solution != want.Solution {
		t.Errorf("evict/revive diverged: %v vs unbroken %v", got.Makespan, want.Makespan)
	}

	// And both agree with the offline engine.
	off, err := scheduler.Open("tabu", w.Graph, w.System, scheduler.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		off.Step(ctx)
	}
	offBest := off.Best()
	if want.Makespan != offBest.Makespan || want.Solution != offBest.Best.Format() {
		t.Errorf("served diverged from offline: %v vs %v", want.Makespan, offBest.Makespan)
	}
}

// TestSearchErrorPaths covers the 400-family behaviour of the search
// endpoints.
func TestSearchErrorPaths(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()
	_, info := makeSearchSession(t, client, 31)

	if _, err := client.StepSearch(ctx, info.ID, serve.StepRequest{}); err == nil {
		t.Error("stepping with no open search succeeded")
	}
	if _, err := client.SearchSnapshot(ctx, info.ID); err == nil {
		t.Error("snapshotting with no open search succeeded")
	}
	if _, err := client.SearchInfo(ctx, info.ID); err == nil {
		t.Error("search info with no open search succeeded")
	}
	if _, err := client.OpenSearch(ctx, info.ID, serve.RunRequest{Algorithm: "nope"}); err == nil {
		t.Error("opening an unknown algorithm succeeded")
	}
	if _, err := client.ResumeSearch(ctx, info.ID, serve.SearchSnapshot{Algorithm: "se", Snapshot: []byte("garbage")}); err == nil {
		t.Error("resuming from garbage bytes succeeded")
	}
	// A constructive search reports Done after one step and stops.
	if _, err := client.OpenSearch(ctx, info.ID, serve.RunRequest{Algorithm: "heft"}); err != nil {
		t.Fatal(err)
	}
	resp, err := client.StepSearch(ctx, info.ID, serve.StepRequest{Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Done || resp.Performed != 1 {
		t.Errorf("constructive search: performed %d, done %v; want 1, true", resp.Performed, resp.Done)
	}
}

// TestEvictReviveKeepsTiedBest: a committed move that leaves the makespan
// unchanged moves the base off the best string while the two tie. An
// evict/revive cycle must hand back the same best string, not the base's.
func TestEvictReviveKeepsTiedBest(t *testing.T) {
	mgr := serve.NewManager(serve.Options{})
	defer mgr.Close()
	p := testParams(31)
	info, err := mgr.Create(serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := mgr.Schedule(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Commit the first makespan-neutral move that changes the string.
	committed := false
	for idx := 0; idx < info.Tasks && !committed; idx++ {
		for to := 0; to < info.Tasks && !committed; to++ {
			for m := 0; m < info.Machines && !committed; m++ {
				req := serve.MoveRequest{Index: idx, To: to, Machine: m}
				probe, err := mgr.Move(info.ID, req)
				if err != nil || probe.Makespan != sched.Makespan {
					continue
				}
				req.Commit = true
				if _, err := mgr.Move(info.ID, req); err != nil {
					t.Fatal(err)
				}
				after, err := mgr.Schedule(info.ID)
				if err != nil {
					t.Fatal(err)
				}
				committed = after.Solution != sched.Solution
			}
		}
	}
	if !committed {
		t.Fatal("no makespan-neutral move changes the base — test premise broken")
	}

	first, err := mgr.Evict(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if first.Best == first.Base {
		t.Fatal("best tracked the tied base — test premise broken")
	}
	revived, err := mgr.Revive(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := mgr.Evict(revived.ID)
	if err != nil {
		t.Fatal(err)
	}
	if second.Best != first.Best {
		t.Errorf("evict/revive replaced the tied best %s with %s", first.Best, second.Best)
	}
}

// TestReviveKeepsBestWorseThanBase: a live amendment splices the base and
// the best independently, so a session's best can be longer than its
// base. Revival must restore the stored best as is, not fall back to the
// base, or a revived session diverges from a never-spilled one.
func TestReviveKeepsBestWorseThanBase(t *testing.T) {
	mgr := serve.NewManager(serve.Options{})
	defer mgr.Close()
	p := testParams(32)
	w := workload.MustGenerate(p)
	info, err := mgr.Create(serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := mgr.Evict(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Everything on machine 0 in topological order: valid, and longer than
	// the constructive base.
	worse := make(schedule.String, 0, w.Graph.NumTasks())
	for _, task := range w.Graph.TopoOrder() {
		worse = append(worse, schedule.Gene{Task: task})
	}
	worseMs := schedule.NewEvaluator(w.Graph, w.System).Makespan(worse)
	if worseMs <= info.BaseMakespan {
		t.Fatalf("crafted best %v not worse than base %v — test premise broken", worseMs, info.BaseMakespan)
	}
	snap.Best = worse.Format()
	revived, err := mgr.Revive(snap)
	if err != nil {
		t.Fatal(err)
	}
	if revived.BestMakespan != worseMs {
		t.Errorf("revived best makespan %v, want the stored best's %v", revived.BestMakespan, worseMs)
	}
	again, err := mgr.Evict(revived.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.Best != snap.Best {
		t.Errorf("revival replaced the stored best %s with %s", snap.Best, again.Best)
	}
}
