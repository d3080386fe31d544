package serve_test

// Online amendment at the serving layer: POST /v1/sessions/{id}/events
// feeds churn into a session. These tests cover the amendment itself,
// warm-starting a pinned search across it, rejection of non-rebasable
// searches, and — the durability composition — the store-spill
// round-trip of a session whose workload was amended after creation: the
// carried document must be the amended one.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/live"
	"repro/internal/serve"
	"repro/internal/store"
)

// arrivalEvent is one task arriving with a dependency on task 0, priced
// for the 5-machine test workload.
func arrivalEvent() live.Event {
	return live.Event{
		Kind: live.KindTaskArrival,
		Tasks: []live.TaskSpec{{
			Name: "hot-1",
			Deps: []live.Dep{{Producer: 0, Size: 1.5}},
			Exec: []float64{100, 120, 90, 110, 105},
		}},
	}
}

func TestApplyEventAmendsSession(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()

	p := testParams(3)
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if info.Tasks != 24 {
		t.Fatalf("created with %d tasks, want 24", info.Tasks)
	}

	amended, err := client.ApplyEvent(ctx, info.ID, arrivalEvent())
	if err != nil {
		t.Fatal(err)
	}
	if amended.Tasks != 25 {
		t.Fatalf("amended session has %d tasks, want 25", amended.Tasks)
	}
	if amended.BaseMakespan <= 0 {
		t.Fatalf("amended base makespan = %v, want > 0", amended.BaseMakespan)
	}

	// The spliced base must still answer move and schedule queries.
	sched, err := client.Schedule(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan != amended.BaseMakespan {
		t.Fatalf("schedule makespan %v != info base makespan %v", sched.Makespan, amended.BaseMakespan)
	}

	// And runs execute against the amended problem.
	res, err := client.Run(ctx, info.ID, serve.RunRequest{Algorithm: "se", Seed: 2, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("run on amended session returned makespan %v", res.Makespan)
	}

	// A machine joining grows the platform the same way.
	exec := make([]float64, amended.Tasks)
	for i := range exec {
		exec[i] = 80
	}
	links := make([]float64, amended.Machines)
	for i := range links {
		links[i] = 0.1
	}
	joined, err := client.ApplyEvent(ctx, info.ID, live.Event{
		Kind: live.KindMachineJoin, Exec: exec, Links: links,
	})
	if err != nil {
		t.Fatal(err)
	}
	if joined.Machines != amended.Machines+1 {
		t.Fatalf("after join: %d machines, want %d", joined.Machines, amended.Machines+1)
	}
}

func TestApplyEventWarmStartsPinnedSearch(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()

	p := testParams(5)
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.OpenSearch(ctx, info.ID, serve.RunRequest{Algorithm: "se-live", Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StepSearch(ctx, info.ID, serve.StepRequest{Steps: 10}); err != nil {
		t.Fatal(err)
	}

	if _, err := client.ApplyEvent(ctx, info.ID, arrivalEvent()); err != nil {
		t.Fatal(err)
	}

	// The rebased search keeps its iteration ledger and stays steppable.
	si, err := client.SearchInfo(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if si.Iterations != 10 {
		t.Fatalf("rebased search reports %d iterations, want the 10 executed before the amendment", si.Iterations)
	}
	stepped, err := client.StepSearch(ctx, info.ID, serve.StepRequest{Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if stepped.Performed != 5 {
		t.Fatalf("post-amendment step performed %d iterations, want 5", stepped.Performed)
	}
	best, err := client.SearchBest(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if best.Iterations != 15 || best.Makespan <= 0 {
		t.Fatalf("post-amendment best = %d iterations, makespan %v; want 15 and > 0", best.Iterations, best.Makespan)
	}
}

func TestApplyEventRejectsNonRebasableSearchAndBadEvents(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()

	p := testParams(7)
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}

	// Invalid events must leave the session untouched.
	bad := arrivalEvent()
	bad.Tasks[0].Exec = []float64{100} // wrong machine count
	if _, err := client.ApplyEvent(ctx, info.ID, bad); err == nil {
		t.Fatal("ApplyEvent accepted an exec row with the wrong machine count")
	}
	after, err := client.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Tasks != info.Tasks {
		t.Fatalf("rejected event changed task count: %d -> %d", info.Tasks, after.Tasks)
	}

	// A pinned constructive search cannot be warm-started; the event must
	// be rejected before any state changes.
	if _, err := client.OpenSearch(ctx, info.ID, serve.RunRequest{Algorithm: "heft"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ApplyEvent(ctx, info.ID, arrivalEvent()); err == nil {
		t.Fatal("ApplyEvent accepted an amendment with a non-rebasable search pinned")
	}
	after, err = client.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Tasks != info.Tasks {
		t.Fatalf("rejected amendment changed task count: %d -> %d", info.Tasks, after.Tasks)
	}
}

// TestAmendedSessionEvictRevive: the evict/revive round-trip of an
// amended session must carry the amended workload document, not the one
// the session was created with. Here a clean shutdown evicts the session
// into the store and the restarted manager revives it on boot.
func TestAmendedSessionEvictRevive(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(serve.Options{Store: st})

	p := testParams(11)
	info, err := mgr.Create(serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.OpenSearch(info.ID, serve.RunRequest{Algorithm: "se-live", Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.StepSearch(info.ID, serve.StepRequest{Steps: 6}); err != nil {
		t.Fatal(err)
	}
	amended, err := mgr.ApplyEvent(info.ID, arrivalEvent())
	if err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := serve.NewManager(serve.Options{Store: st2})
	t.Cleanup(func() {
		mgr2.Close()
		st2.Close()
	})
	revived, err := mgr2.Info(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if revived.Tasks != amended.Tasks {
		t.Fatalf("revived session has %d tasks, want the amended %d", revived.Tasks, amended.Tasks)
	}
	if revived.BaseMakespan != amended.BaseMakespan {
		t.Fatalf("revived base makespan %v != amended %v", revived.BaseMakespan, amended.BaseMakespan)
	}
	// The revived search continues on the amended problem.
	si, err := mgr2.SearchInfo(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if si.Iterations != 6 {
		t.Fatalf("revived search reports %d iterations, want 6", si.Iterations)
	}
	stepped, err := mgr2.StepSearch(info.ID, serve.StepRequest{Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stepped.Performed != 3 {
		t.Fatalf("revived search performed %d steps, want 3", stepped.Performed)
	}
}

// TestAmendedSessionStoreSpillRevive: with a durable store, an amended
// session spilled by LRU pressure revives — under its original id — with
// the amended DAG, its amended base and its rebased search, because every
// amendment re-encodes the session's canonical workload document before
// persisting.
func TestAmendedSessionStoreSpillRevive(t *testing.T) {
	client, _, _, _ := newDurableServer(t, 1)
	ctx := context.Background()

	p := testParams(13)
	a, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.OpenSearch(ctx, a.ID, serve.RunRequest{Algorithm: "se-live", Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StepSearch(ctx, a.ID, serve.StepRequest{Steps: 6}); err != nil {
		t.Fatal(err)
	}
	amended, err := client.ApplyEvent(ctx, a.ID, arrivalEvent())
	if err != nil {
		t.Fatal(err)
	}

	// Creating a second session at cap 1 spills the amended one.
	q := testParams(14)
	if _, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &q}); err != nil {
		t.Fatal(err)
	}

	// Any request against the spilled id revives it transparently — with
	// the amended document.
	revived, err := client.Session(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if revived.Tasks != amended.Tasks {
		t.Fatalf("revived session has %d tasks, want the amended %d", revived.Tasks, amended.Tasks)
	}
	if revived.BaseMakespan != amended.BaseMakespan {
		t.Fatalf("revived base makespan %v != amended %v", revived.BaseMakespan, amended.BaseMakespan)
	}
	// The revived search continues on the amended problem.
	si, err := client.SearchInfo(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if si.Iterations != 6 {
		t.Fatalf("revived search reports %d iterations, want 6", si.Iterations)
	}
	stepped, err := client.StepSearch(ctx, a.ID, serve.StepRequest{Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stepped.Performed != 3 {
		t.Fatalf("revived search performed %d steps, want 3", stepped.Performed)
	}
	// And it accepts further amendments right away (the lazily rebuilt
	// problem state is derived from the amended document alone).
	next := arrivalEvent()
	next.Tasks[0].Name = "hot-2"
	again, err := client.ApplyEvent(ctx, a.ID, next)
	if err != nil {
		t.Fatal(err)
	}
	if again.Tasks != amended.Tasks+1 {
		t.Fatalf("second amendment: %d tasks, want %d", again.Tasks, amended.Tasks+1)
	}
}

// TestApplyEventUnknownSession: amendment of a missing session is 404,
// not a new session.
func TestApplyEventUnknownSession(t *testing.T) {
	_, mgr := newTestServer(t, serve.Options{})
	_, err := mgr.ApplyEvent("nope", arrivalEvent())
	if !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("ApplyEvent on unknown session: %v, want ErrNotFound", err)
	}
}

// postRaw posts body to url and returns the status code and response body.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestUploadRejectsOverflowingCosts: an uploaded workload whose costs
// overflow every makespan to +Inf is a 400 with an error body, not a
// session whose every JSON answer is an empty success.
func TestUploadRejectsOverflowingCosts(t *testing.T) {
	_, _, url := newMetricsServer(t, serve.Options{})
	doc := `{"name":"huge","tasks":["a","b"],"items":[],"exec":[[1e308,1e308]]}`
	code, body := postRaw(t, url+"/v1/sessions", `{"workload":`+doc+`}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "float64 range") {
		t.Fatalf("upload answered %d %q, want 400 naming the overflow", code, body)
	}
}

// TestEventOverflowingCostsRejected: a speed factor that pushes execution
// times past the float64 range is a 400 that leaves the session as it
// was, still answering JSON.
func TestEventOverflowingCostsRejected(t *testing.T) {
	client, _, url := newMetricsServer(t, serve.Options{})
	ctx := context.Background()
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "small"})
	if err != nil {
		t.Fatal(err)
	}
	before, err := client.Schedule(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	code, body := postRaw(t, url+"/v1/sessions/"+info.ID+"/events",
		`{"kind":"machine_speed","machine":0,"factor":1e308}`)
	if code != http.StatusBadRequest {
		t.Fatalf("overflowing event answered %d %q, want 400", code, body)
	}
	after, err := client.Schedule(ctx, info.ID)
	if err != nil {
		t.Fatalf("schedule after a rejected event: %v", err)
	}
	if after != before {
		t.Errorf("rejected event changed the schedule: %+v → %+v", before, after)
	}
}

// TestEventUnderflowingCostsLeaveSessionUsable: a second 1e-200 speed-up
// underflows execution times to zero. That event is a 400 that leaves the
// session at the first event's state, so later events still apply.
func TestEventUnderflowingCostsLeaveSessionUsable(t *testing.T) {
	client, _ := newTestServer(t, serve.Options{})
	ctx := context.Background()
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Preset: "small"})
	if err != nil {
		t.Fatal(err)
	}
	tiny := live.Event{Kind: live.KindMachineSpeed, Machine: 0, Factor: 1e-200}
	if _, err := client.ApplyEvent(ctx, info.ID, tiny); err != nil {
		t.Fatalf("first speed-up: %v", err)
	}
	if _, err := client.ApplyEvent(ctx, info.ID, tiny); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("underflowing speed-up: %v, want a 400", err)
	}
	if _, err := client.ApplyEvent(ctx, info.ID, live.Event{Kind: live.KindMachineSpeed, Machine: 1, Factor: 2}); err != nil {
		t.Fatalf("event after a rejected one: %v", err)
	}
}
