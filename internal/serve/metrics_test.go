package serve_test

// Tests for the serving layer's observability surface: /metrics serves
// well-formed Prometheus text exposition, the session and step counters
// advance under concurrent search sessions, /v1/healthz carries build
// metadata, and the Client propagates X-Request-ID.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// newMetricsServer is newTestServer plus the raw base URL, for endpoints
// the typed Client does not wrap (/metrics, /debug/vars).
func newMetricsServer(t *testing.T, opts serve.Options) (*serve.Client, *serve.Manager, string) {
	t.Helper()
	mgr := serve.NewManager(opts)
	srv := httptest.NewServer(serve.NewServer(mgr))
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return serve.NewClient(srv.URL), mgr, srv.URL
}

// sampleLine matches one exposition sample; quoted label values may
// contain "}" (mux patterns do), so the label set is parsed as quoted
// strings, not up to the first brace.
var sampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
		`(\{[a-zA-Z0-9_]+="(?:[^"\\]|\\.)*"(?:,[a-zA-Z0-9_]+="(?:[^"\\]|\\.)*")*\})?` +
		` (-?[0-9.e+\-Inf]+)$`)

// scrapeMetrics fetches base/metrics, fails the test on any malformed
// line, and returns the samples keyed by name{labels}.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

// TestMetricsEndpointExposition drives a session through a search and
// checks the scrape: parseable exposition, endpoint-labeled HTTP
// counters, live-session gauge, and the step counter matching the steps
// actually served.
func TestMetricsEndpointExposition(t *testing.T) {
	client, _, base := newMetricsServer(t, serve.Options{})
	ctx := context.Background()

	p := testParams(3)
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.OpenSearch(ctx, info.ID, serve.RunRequest{Algorithm: "se", Seed: 5}); err != nil {
		t.Fatal(err)
	}
	const steps = 25
	resp, err := client.StepSearch(ctx, info.ID, serve.StepRequest{Steps: steps, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Performed != steps {
		t.Fatalf("performed %d steps, want %d", resp.Performed, steps)
	}

	// The middleware records a request once its handler returns, which
	// can be after the client has read the reply: wait, within a bound,
	// until both observations are in.
	const createKey = `serve_http_requests_total{endpoint="POST /v1/sessions",code="201"}`
	const stepKey = `serve_http_request_duration_seconds_count{endpoint="POST /v1/sessions/{id}/search/step"}`
	s := scrapeMetrics(t, base)
	for deadline := time.Now().Add(5 * time.Second); (s[createKey] < 1 || s[stepKey] < 1) && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		s = scrapeMetrics(t, base)
	}
	if got := s[createKey]; got != 1 {
		t.Errorf("create-session counter = %v, want 1", got)
	}
	if got := s[stepKey]; got != 1 {
		t.Errorf("step latency histogram count = %v, want 1", got)
	}
	if got := s["serve_sessions_live"]; got != 1 {
		t.Errorf("serve_sessions_live = %v, want 1", got)
	}
	if got := s["serve_search_steps_total"]; got != steps {
		t.Errorf("serve_search_steps_total = %v, want %d", got, steps)
	}
	if got := s["serve_search_snapshot_bytes_total"]; got <= 0 {
		t.Errorf("serve_search_snapshot_bytes_total = %v, want > 0", got)
	}
	if got := s[fmt.Sprintf("serve_search_best_makespan{session=%q}", info.ID)]; got <= 0 {
		t.Errorf("per-session best gauge = %v, want > 0", got)
	}

	// Teardown drops the per-session gauges and counts the eviction.
	if err := client.DeleteSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	s = scrapeMetrics(t, base)
	if got := s["serve_sessions_live"]; got != 0 {
		t.Errorf("serve_sessions_live after delete = %v, want 0", got)
	}
	if _, ok := s[fmt.Sprintf("serve_search_best_makespan{session=%q}", info.ID)]; ok {
		t.Error("per-session gauge survived session teardown")
	}
	if got := s[`serve_sessions_evicted_total{reason="delete"}`]; got != 1 {
		t.Errorf("evicted{delete} = %v, want 1", got)
	}

	// The JSON exporter serves the same registry.
	vresp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["serve_search_steps_total"]; !ok {
		t.Error("/debug/vars missing serve_search_steps_total")
	}
}

// TestCountersAdvanceUnderConcurrentSessions is the concurrency half of
// the exposition check: 8 sessions stepping searches in parallel must
// account every step exactly — the counters are atomics shared across
// session workers.
func TestCountersAdvanceUnderConcurrentSessions(t *testing.T) {
	const sessions = 8
	const stepsEach = 20
	client, mgr, base := newMetricsServer(t, serve.Options{})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := testParams(int64(100 + i))
			info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
			if err != nil {
				errs <- err
				return
			}
			if _, err := client.OpenSearch(ctx, info.ID, serve.RunRequest{Algorithm: "se", Seed: int64(i)}); err != nil {
				errs <- err
				return
			}
			for s := 0; s < stepsEach; s++ {
				if _, err := client.StepSearch(ctx, info.ID, serve.StepRequest{Steps: 1}); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := scrapeMetrics(t, base)
	if got := s["serve_sessions_created_total"]; got != sessions {
		t.Errorf("sessions created = %v, want %d", got, sessions)
	}
	if got := s["serve_sessions_live"]; got != sessions {
		t.Errorf("sessions live = %v, want %d", got, sessions)
	}
	if got := s["serve_search_steps_total"]; got != sessions*stepsEach {
		t.Errorf("search steps = %v, want exactly %d", got, sessions*stepsEach)
	}
	if mgr.Len() != sessions {
		t.Errorf("manager sessions = %d, want %d", mgr.Len(), sessions)
	}
}

// TestHealthzBuildInfo: the liveness endpoint reports uptime and build
// metadata alongside the session count.
func TestHealthzBuildInfo(t *testing.T) {
	_, _, base := newMetricsServer(t, serve.Options{})
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK {
		t.Error("healthz ok = false")
	}
	if h.Sessions != 0 {
		t.Errorf("sessions = %d, want 0", h.Sessions)
	}
	if h.GoVersion == "" {
		t.Error("healthz missing go_version")
	}
	if h.UptimeSec < 0 {
		t.Errorf("uptime_s = %v, want >= 0", h.UptimeSec)
	}
	if resp.Header.Get(obs.RequestIDHeader) == "" {
		t.Error("response missing generated X-Request-ID")
	}
}

// TestClientPropagatesRequestID: every Client request path sends
// X-Request-ID — the context's ID when one is set, a generated one
// otherwise — so coordinator and worker access logs correlate.
func TestClientPropagatesRequestID(t *testing.T) {
	var mu sync.Mutex
	var got []string
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Header.Get(obs.RequestIDHeader))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, "{}")
	}))
	defer fake.Close()

	c := serve.NewClient(fake.URL)
	ctx := serve.WithRequestID(context.Background(), "round-42")
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StepSearch(ctx, "s1", serve.StepRequest{}); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSession(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 4 {
		t.Fatalf("recorded %d requests, want 4", len(got))
	}
	for i, id := range got[:3] {
		if id != "round-42" {
			t.Errorf("request %d carried ID %q, want propagated round-42", i, id)
		}
	}
	if got[3] == "" {
		t.Error("request without a context ID carried no generated ID")
	}
}
