package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/jsonscan"
	"repro/internal/live"
	"repro/internal/obs"
)

// reqIDKey carries a caller-chosen request ID in a context (see
// WithRequestID).
type reqIDKey struct{}

// WithRequestID returns a context that makes every Client request issued
// under it carry id in the X-Request-ID header, so the caller's logs and
// the daemon's access logs correlate. The distributed coordinator stamps
// one ID per region-round: retries, re-placements and hedge replicas all
// trace back to the round that caused them. Without it each request gets
// a fresh generated ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// requestID extracts the context's request ID, generating one otherwise.
func requestID(ctx context.Context) string {
	if id, ok := ctx.Value(reqIDKey{}).(string); ok && id != "" {
		return id
	}
	return obs.NewRequestID()
}

// sharedTransport pools TCP connections across every Client in the
// process: the distributed coordinator issues one small JSON RPC per
// region per round to the same few daemons, and without keep-alive reuse
// each round would pay connection setup per region. The generous per-host
// idle cap covers a coordinator driving many sessions on one worker.
var sharedTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.IdleConnTimeout = 90 * time.Second
	return t
}()

// Client speaks the service's wire format to a running mshd daemon. All
// Clients share one pooled transport, so repeated requests to the same
// daemon reuse warm connections. Non-streaming requests can carry a
// per-request timeout (WithTimeout); streamed runs rely on the caller's
// context for cancellation, so they never get a client-side deadline.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
}

// NewClient returns a Client for the daemon at base (e.g.
// "http://localhost:8037").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{Transport: sharedTransport}}
}

// WithTimeout returns a copy of the client that bounds every
// non-streaming request (including response decoding) by d. Zero means no
// client-side deadline. The coordinator uses this to turn a hung worker
// into a retriable error instead of a stalled round.
func (c *Client) WithTimeout(d time.Duration) *Client {
	cc := *c
	cc.timeout = d
	return &cc
}

// reqContext applies the client's per-request timeout to ctx. The
// returned cancel must be held until the response body has been consumed.
func (c *Client) reqContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return ctx, func() {}
}

// Health checks daemon liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.get(ctx, "/v1/healthz", &struct{}{})
}

// Algorithms lists the daemon's scheduler registry.
func (c *Client) Algorithms(ctx context.Context) ([]AlgorithmInfo, error) {
	var out []AlgorithmInfo
	err := c.get(ctx, "/v1/algorithms", &out)
	return out, err
}

// CreateSession creates a session and returns its info. An uploaded
// Workload document is sent as given, not compacted: it must be exactly
// one JSON value, or nothing is sent (see createBody).
func (c *Client) CreateSession(ctx context.Context, req CreateSessionRequest) (SessionInfo, error) {
	body, err := createBody(req)
	if err != nil {
		return SessionInfo{}, err
	}
	var out SessionInfo
	err = c.postRaw(ctx, "/v1/sessions", body, &out)
	return out, err
}

// createBody encodes req as json.Marshal does, except that the Workload
// document is copied into the body unchanged: json.Marshal compacts and
// HTML-escapes it, which takes several times as long as checking it, and
// the server reads either form alike. The document is first checked to
// be exactly one well-formed JSON value with nothing but whitespace after
// it, as json.Marshal checks it, so its bytes cannot end the workload
// member early and add members of their own to the envelope. The rest of
// req is marshalled around it.
func createBody(req CreateSessionRequest) ([]byte, error) {
	doc := req.Workload
	req.Workload = nil
	rest, err := json.Marshal(req)
	if err != nil || len(doc) == 0 {
		return rest, err
	}
	s := jsonscan.New(doc)
	if err := s.Skip(); err != nil {
		return nil, fmt.Errorf("serve: workload document: %w", err)
	}
	if s.Peek(); s.Offset() != len(doc) {
		return nil, fmt.Errorf("serve: workload document: offset %d: invalid character %q after top-level value", s.Offset(), doc[s.Offset()])
	}
	body := make([]byte, 0, len(`{"workload":,`)+len(doc)+len(rest))
	body = append(append(body, `{"workload":`...), doc...)
	if len(rest) > len("{}") {
		body = append(body, ',')
	}
	return append(body, rest[1:]...), nil
}

// Session fetches one session's info.
func (c *Client) Session(ctx context.Context, id string) (SessionInfo, error) {
	var out SessionInfo
	err := c.get(ctx, "/v1/sessions/"+url.PathEscape(id), &out)
	return out, err
}

// ListSessions lists every live session.
func (c *Client) ListSessions(ctx context.Context) ([]SessionInfo, error) {
	var out []SessionInfo
	err := c.get(ctx, "/v1/sessions", &out)
	return out, err
}

// DeleteSession tears a session down.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	ctx, cancel := c.reqContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/sessions/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	req.Header.Set(obs.RequestIDHeader, requestID(ctx))
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return respError(resp)
	}
	return nil
}

// Run executes one algorithm in the session and returns its result.
func (c *Client) Run(ctx context.Context, id string, req RunRequest) (Result, error) {
	var out Result
	err := c.post(ctx, "/v1/sessions/"+url.PathEscape(id)+"/run", req, &out)
	return out, err
}

// RunStream executes one algorithm with streamed progress: onProgress is
// called for every progress event the daemon emits, and the final result
// is returned once the run completes.
func (c *Client) RunStream(ctx context.Context, id string, req RunRequest, onProgress func(ProgressEvent)) (Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return Result{}, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/sessions/"+url.PathEscape(id)+"/run?stream=1", bytes.NewReader(body))
	if err != nil {
		return Result{}, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(obs.RequestIDHeader, requestID(ctx))
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return Result{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return Result{}, respError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev RunEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return Result{}, fmt.Errorf("serve: bad stream event: %w", err)
		}
		switch {
		case ev.Error != "":
			return Result{}, fmt.Errorf("serve: run: %s", ev.Error)
		case ev.Result != nil:
			return *ev.Result, nil
		case ev.Progress != nil && onProgress != nil:
			onProgress(*ev.Progress)
		}
	}
	if err := sc.Err(); err != nil {
		return Result{}, err
	}
	return Result{}, fmt.Errorf("serve: stream ended without a result event")
}

// ApplyEvent feeds one live churn event (internal/live) into the session:
// the workload is amended, the pinned solutions spliced, and any pinned
// rebasable search warm-started across the amendment. Returns the
// session's post-amendment info.
func (c *Client) ApplyEvent(ctx context.Context, id string, ev live.Event) (SessionInfo, error) {
	var out SessionInfo
	err := c.post(ctx, "/v1/sessions/"+url.PathEscape(id)+"/events", ev, &out)
	return out, err
}

// Move evaluates (and optionally commits) one move against the session's
// pinned base string.
func (c *Client) Move(ctx context.Context, id string, req MoveRequest) (MoveResponse, error) {
	var out MoveResponse
	err := c.post(ctx, "/v1/sessions/"+url.PathEscape(id)+"/move", req, &out)
	return out, err
}

// Schedule fetches the session's pinned base solution.
func (c *Client) Schedule(ctx context.Context, id string) (ScheduleResponse, error) {
	var out ScheduleResponse
	err := c.get(ctx, "/v1/sessions/"+url.PathEscape(id)+"/schedule", &out)
	return out, err
}

// Analysis fetches the schedule analysis of the session's base solution.
func (c *Client) Analysis(ctx context.Context, id string) (AnalysisResponse, error) {
	var out AnalysisResponse
	err := c.get(ctx, "/v1/sessions/"+url.PathEscape(id)+"/analysis", &out)
	return out, err
}

// Gantt fetches the text Gantt chart of the session's base solution.
// width 0 uses the server default.
func (c *Client) Gantt(ctx context.Context, id string, width int) (string, error) {
	path := "/v1/sessions/" + url.PathEscape(id) + "/gantt"
	if width > 0 {
		path += fmt.Sprintf("?width=%d", width)
	}
	ctx, cancel := c.reqContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set(obs.RequestIDHeader, requestID(ctx))
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", respError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// OpenSearch pins a live resumable search in the session (budget fields
// of req are ignored; the search is driven by StepSearch).
func (c *Client) OpenSearch(ctx context.Context, id string, req RunRequest) (SearchInfo, error) {
	var out SearchInfo
	err := c.post(ctx, "/v1/sessions/"+url.PathEscape(id)+"/search", req, &out)
	return out, err
}

// SearchInfo fetches the pinned search's status.
func (c *Client) SearchInfo(ctx context.Context, id string) (SearchInfo, error) {
	var out SearchInfo
	err := c.get(ctx, "/v1/sessions/"+url.PathEscape(id)+"/search", &out)
	return out, err
}

// StepSearch advances the pinned search.
func (c *Client) StepSearch(ctx context.Context, id string, req StepRequest) (StepResponse, error) {
	var out StepResponse
	err := c.post(ctx, "/v1/sessions/"+url.PathEscape(id)+"/search/step", req, &out)
	return out, err
}

// SearchBest fetches the pinned search's best-so-far Result.
func (c *Client) SearchBest(ctx context.Context, id string) (Result, error) {
	var out Result
	err := c.get(ctx, "/v1/sessions/"+url.PathEscape(id)+"/search/best", &out)
	return out, err
}

// SearchSnapshot serializes the pinned search to portable bytes.
func (c *Client) SearchSnapshot(ctx context.Context, id string) (SearchSnapshot, error) {
	var out SearchSnapshot
	err := c.get(ctx, "/v1/sessions/"+url.PathEscape(id)+"/search/snapshot", &out)
	return out, err
}

// ResumeSearch pins a search restored from snapshot bytes.
func (c *Client) ResumeSearch(ctx context.Context, id string, req SearchSnapshot) (SearchInfo, error) {
	var out SearchInfo
	err := c.post(ctx, "/v1/sessions/"+url.PathEscape(id)+"/search/resume", req, &out)
	return out, err
}

func (c *Client) get(ctx context.Context, path string, dst any) error {
	ctx, cancel := c.reqContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set(obs.RequestIDHeader, requestID(ctx))
	return c.doJSON(req, dst)
}

func (c *Client) post(ctx context.Context, path string, body, dst any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.postRaw(ctx, path, raw, dst)
}

// postRaw posts an encoded JSON body and decodes the response into dst.
func (c *Client) postRaw(ctx context.Context, path string, raw []byte, dst any) error {
	ctx, cancel := c.reqContext(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, requestID(ctx))
	return c.doJSON(req, dst)
}

func (c *Client) doJSON(req *http.Request, dst any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return respError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// respError converts a non-2xx response into an error, surfacing the
// service's error envelope when present.
func respError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	var eb ErrorBody
	if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
		return fmt.Errorf("serve: %s: %s", resp.Status, eb.Error)
	}
	return fmt.Errorf("serve: %s: %s", resp.Status, strings.TrimSpace(string(b)))
}
