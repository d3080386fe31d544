package serve_test

// Store↔LRU interaction at the serving layer: with a durable store, LRU
// eviction spills sessions to disk instead of destroying them, the next
// request against a spilled session revives it transparently under its
// original id, and the whole dance is visible — and leak-free — on the
// real /metrics endpoint.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// newDurableServer is newMetricsServer over a durable store sharing the
// server's registry, so /metrics carries both serve_* and store_*.
func newDurableServer(t *testing.T, maxSessions int) (*serve.Client, *serve.Manager, *store.Store, string) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	client, mgr, base := newMetricsServer(t, serve.Options{
		MaxSessions: maxSessions,
		Metrics:     reg,
		Store:       st,
	})
	return client, mgr, st, base
}

// TestLRUSpillAndTransparentRevive: at the session cap, creating a new
// session spills the LRU one into the store; a later request against the
// spilled id revives it with its search intact and continues exactly
// where it left off. The eviction, the store writes and the revival are
// all asserted off a real /metrics scrape.
func TestLRUSpillAndTransparentRevive(t *testing.T) {
	client, _, st, base := newDurableServer(t, 1)
	ctx := context.Background()

	p := testParams(17)
	a, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.OpenSearch(ctx, a.ID, serve.RunRequest{Algorithm: "se", Seed: 5}); err != nil {
		t.Fatal(err)
	}
	stepped, err := client.StepSearch(ctx, a.ID, serve.StepRequest{Steps: 7})
	if err != nil {
		t.Fatal(err)
	}
	if stepped.Performed != 7 {
		t.Fatalf("performed %d steps, want 7", stepped.Performed)
	}

	// Creating a second session at cap 1 spills the first to the store.
	p2 := testParams(18)
	b, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	s := scrapeMetrics(t, base)
	if got := s[`serve_sessions_evicted_total{reason="lru"}`]; got != 1 {
		t.Errorf("lru evictions = %v, want 1", got)
	}
	if got := s["serve_sessions_live"]; got != 1 {
		t.Errorf("serve_sessions_live = %v, want 1", got)
	}
	if got := s["store_sessions"]; got != 2 {
		t.Errorf("store_sessions = %v, want 2 (both sessions persisted)", got)
	}
	if s["store_writes_total"] == 0 || s["store_bytes_total"] == 0 {
		t.Errorf("store write instruments flat: writes=%v bytes=%v",
			s["store_writes_total"], s["store_bytes_total"])
	}
	// The spill went through the shared teardown helper: the evicted
	// session's labeled gauges must be gone from the scrape.
	for _, name := range []string{"serve_search_best_makespan", "serve_search_steps_per_sec"} {
		if _, leaked := s[fmt.Sprintf(`%s{session="%s"}`, name, a.ID)]; leaked {
			t.Errorf("%s{session=%q} survived the spill", name, a.ID)
		}
	}

	// A request against the spilled id revives it transparently — same
	// id, search intact at its persisted iteration count.
	infoA, err := client.SearchInfo(ctx, a.ID)
	if err != nil {
		t.Fatalf("request against spilled session: %v", err)
	}
	if infoA.Iterations != 7 || infoA.Algorithm != "se" {
		t.Fatalf("revived search = %d iterations of %q, want 7 of se", infoA.Iterations, infoA.Algorithm)
	}
	if _, err := client.StepSearch(ctx, a.ID, serve.StepRequest{Steps: 3}); err != nil {
		t.Fatal(err)
	}
	again, err := client.SearchInfo(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.Iterations != 10 {
		t.Fatalf("iterations after revive+step = %d, want 10", again.Iterations)
	}

	s = scrapeMetrics(t, base)
	if got := s["serve_sessions_recovered_total"]; got != 1 {
		t.Errorf("serve_sessions_recovered_total = %v, want 1 (on-demand revival counts)", got)
	}
	// Reviving A at cap 1 spilled B in turn.
	if got := s[`serve_sessions_evicted_total{reason="lru"}`]; got != 2 {
		t.Errorf("lru evictions after revival = %v, want 2", got)
	}
	if got := s["serve_sessions_live"]; got != 1 {
		t.Errorf("serve_sessions_live = %v, want 1", got)
	}

	// B is spilled-only now; deleting it must still work, remove its
	// stored record, and leak no gauges.
	if err := client.DeleteSession(ctx, b.ID); err != nil {
		t.Fatalf("delete of spilled-only session: %v", err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(b.ID); ok {
		t.Error("deleted session's record still in the store")
	}
	s = scrapeMetrics(t, base)
	if got := s[`serve_sessions_evicted_total{reason="delete"}`]; got != 1 {
		t.Errorf("delete evictions = %v, want 1", got)
	}
	if got := s["serve_sessions_live"]; got != 1 {
		t.Errorf("serve_sessions_live after spilled-only delete = %v, want 1 (A still live)", got)
	}
}

// TestSpillReviveDeleteLeaksNoGauges is the metrics-teardown guarantee
// through the spill path: a session that is stepped (creating labeled
// gauges), LRU-spilled, revived, stepped again and finally deleted leaves
// no per-session gauge children behind — and its store record is gone.
func TestSpillReviveDeleteLeaksNoGauges(t *testing.T) {
	client, _, st, base := newDurableServer(t, 1)
	ctx := context.Background()

	p := testParams(23)
	a, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.OpenSearch(ctx, a.ID, serve.RunRequest{Algorithm: "se", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StepSearch(ctx, a.ID, serve.StepRequest{Steps: 5}); err != nil {
		t.Fatal(err)
	}
	// Force a spill, then a revival (which spills the forcer), then step
	// so the revived session re-creates its labeled gauges.
	p2 := testParams(24)
	if _, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p2}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StepSearch(ctx, a.ID, serve.StepRequest{Steps: 5}); err != nil {
		t.Fatal(err)
	}
	s := scrapeMetrics(t, base)
	if _, ok := s[fmt.Sprintf(`serve_search_best_makespan{session="%s"}`, a.ID)]; !ok {
		t.Fatalf("revived session %s has no labeled best gauge — test premise broken", a.ID)
	}

	if err := client.DeleteSession(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(a.ID); ok {
		t.Error("deleted session's record still in the store")
	}
	s = scrapeMetrics(t, base)
	for _, name := range []string{"serve_search_best_makespan", "serve_search_steps_per_sec"} {
		if _, leaked := s[fmt.Sprintf(`%s{session="%s"}`, name, a.ID)]; leaked {
			t.Errorf("%s{session=%q} leaked through spill→revive→delete", name, a.ID)
		}
	}
}

// TestCloseSpillsForRestart: a graceful Close persists every live session,
// and a new manager over the same store replays them on boot — the clean
// restart path (the kill -9 path is crash_property_test.go's).
func TestCloseSpillsForRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(serve.Options{Store: st})
	p := testParams(29)
	info, err := mgr.Create(serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.OpenSearch(info.ID, serve.RunRequest{Algorithm: "se-ils", Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.StepSearch(info.ID, serve.StepRequest{Steps: 4}); err != nil {
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
	if got := mgr2.RecoveredSessions(); got != 1 {
		t.Fatalf("recovered %d sessions after clean restart, want 1", got)
	}
	rec, err := mgr2.SearchInfo(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Iterations != 4 || rec.Algorithm != "se-ils" {
		t.Fatalf("recovered search = %d iterations of %q, want 4 of se-ils", rec.Iterations, rec.Algorithm)
	}
	// New sessions never collide with recovered ids.
	p2 := testParams(30)
	fresh, err := mgr2.Create(serve.CreateSessionRequest{Params: &p2})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == info.ID {
		t.Fatalf("fresh session reused recovered id %q", fresh.ID)
	}
}

// TestReviveRace: at a session cap of 1, requests alternating between two
// durable sessions spill and revive them continuously. A request that
// finds a session in the table must find it fully built — pinned
// evaluator, adopted best, restored search — however it races the
// revival that put it there.
func TestReviveRace(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr := serve.NewManager(serve.Options{MaxSessions: 1, Store: st})
	defer mgr.Close()
	var ids []string
	for seed := int64(41); seed <= 42; seed++ {
		p := testParams(seed)
		info, err := mgr.Create(serve.CreateSessionRequest{Params: &p})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}

	var served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				_, err := mgr.Schedule(ids[(g+i)%2])
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, serve.ErrNotFound), errors.Is(err, serve.ErrClosed):
					// Evicted again before the request reached it: the
					// thrash this test provokes, not a failure.
				default:
					t.Errorf("Schedule: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Error("no request was served")
	}
}

// TestDeleteDuringRunStaysDeleted: deleting a durable session while a run
// is in flight removes it for good. The cancelled run still returns its
// best-so-far, but it must not write the session's record back to the
// store, or the next request would revive the deleted session.
func TestDeleteDuringRunStaysDeleted(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr := serve.NewManager(serve.Options{Store: st})
	defer mgr.Close()
	info, err := mgr.Create(serve.CreateSessionRequest{Preset: "small"})
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := mgr.Run(context.Background(), info.ID,
			serve.RunRequest{Algorithm: "se", Seed: 1, TimeBudgetMS: 60_000},
			func(serve.ProgressEvent) { once.Do(func() { close(started) }) })
		done <- err
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("run ended before its first iteration: %v", err)
	}
	if err := mgr.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("cancelled run returned error %v, want its best-so-far", err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(info.ID); ok {
		t.Error("the deleted session's record is back in the store")
	}
	if _, err := mgr.Info(info.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("Info after Delete: %v, want ErrNotFound", err)
	}
}

// TestDeleteDuringSpillStaysDeleted: a Delete that lands while LRU
// eviction is spilling the same session is final. Session A is busy with a
// run when Create(B) evicts it at the cap of one, so the spill waits for
// A's worker with A already out of the table. A Delete in that window must
// stop both writers that could put A back: the run's persist and the
// spill's Put.
func TestDeleteDuringSpillStaysDeleted(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr := serve.NewManager(serve.Options{Store: st, MaxSessions: 1})
	defer mgr.Close()
	a, err := mgr.Create(serve.CreateSessionRequest{Preset: "small"})
	if err != nil {
		t.Fatal(err)
	}

	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	ran := make(chan error, 1)
	go func() {
		_, err := mgr.Run(context.Background(), a.ID,
			serve.RunRequest{Algorithm: "se", Seed: 1, MaxIterations: 5},
			func(serve.ProgressEvent) { once.Do(func() { close(started); <-release }) })
		ran <- err
	}()
	<-started
	created := make(chan error, 1)
	go func() {
		_, err := mgr.Create(serve.CreateSessionRequest{Preset: "small"})
		created <- err
	}()
	// Wait for the eviction to take A out of the table; its spill then
	// waits for A's worker, which the blocked run holds.
	for evicted := false; !evicted; {
		evicted = true
		for _, s := range mgr.List() {
			evicted = evicted && s.ID != a.ID
		}
	}
	if err := mgr.Delete(a.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-ran; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := <-created; err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(a.ID); ok {
		t.Error("the deleted session's record is back in the store")
	}
	if _, err := mgr.Info(a.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("Info after Delete: %v, want ErrNotFound", err)
	}
}
