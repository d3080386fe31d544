package serve_test

import (
	"bytes"
	"context"
	"testing"

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
