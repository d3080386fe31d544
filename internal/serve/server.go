package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/scheduler"
)

// maxBodyBytes bounds uploaded request bodies; workload uploads are the
// largest legitimate payload and stay far below this.
const maxBodyBytes = 32 << 20

// ReadHeaderTimeout bounds how long a listener waits for a request's
// headers, so a client that opens a connection and never finishes its
// request line cannot hold that connection and its goroutine forever.
// Bodies and responses stay unbounded in time on purpose: 32 MiB uploads
// and NDJSON progress streams legitimately take long.
const ReadHeaderTimeout = 10 * time.Second

// NewHTTPServer returns an http.Server serving h on addr with
// ReadHeaderTimeout set. mshd's service and debug listeners and mshc's
// debug listener are built here.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}

// progressInterval throttles streamed progress events: at most one per
// interval plus the final iteration, so a tight search loop does not melt
// the connection. Throttling is observation-only — it cannot change what
// the algorithm computes.
const progressInterval = 100 * time.Millisecond

// Server exposes a Manager over HTTP/JSON. Routes:
//
//	GET    /v1/healthz                  liveness
//	GET    /v1/algorithms               registry listing
//	POST   /v1/sessions                 create a session
//	GET    /v1/sessions                 list sessions
//	GET    /v1/sessions/{id}            session info
//	DELETE /v1/sessions/{id}            tear a session down
//	POST   /v1/sessions/{id}/run        run an algorithm (?stream=1 → NDJSON)
//	POST   /v1/sessions/{id}/events     apply a live churn event (internal/live)
//	POST   /v1/sessions/{id}/move       query/commit a move
//	GET    /v1/sessions/{id}/schedule   pinned base solution
//	GET    /v1/sessions/{id}/analysis   schedule analysis
//	GET    /v1/sessions/{id}/gantt      text Gantt chart (?width=N)
//
// Resumable-search routes (see search.go): a session pins one live
// Search, driven step requests at a time, serializable to bytes and
// revivable — in this server or another — with bit-identical
// continuation:
//
//	POST   /v1/sessions/{id}/search           open/replace the pinned search
//	GET    /v1/sessions/{id}/search           pinned search status
//	POST   /v1/sessions/{id}/search/step      advance it (StepRequest)
//	GET    /v1/sessions/{id}/search/best      best-so-far Result
//	GET    /v1/sessions/{id}/search/snapshot  serialize the search
//	POST   /v1/sessions/{id}/search/resume    restore from a snapshot
//
// Sessions park only through the durable store (see store.go): with one
// configured, idle and LRU eviction spill a session and the next request
// for it revives it transparently under the same id.
//
// Observability routes (see internal/obs): every request passes through
// one metrics-and-access-log middleware labeled by matched route pattern,
// and the manager's registry is exported at:
//
//	GET    /metrics        Prometheus text exposition
//	GET    /debug/vars     expvar-style JSON
type Server struct {
	m       *Manager
	mux     *http.ServeMux
	handler http.Handler
	httpMet *obs.HTTPMetrics
	start   time.Time
}

// NewServer wraps m in an HTTP handler.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleApplyEvent)
	s.mux.HandleFunc("POST /v1/sessions/{id}/move", s.handleMove)
	s.mux.HandleFunc("GET /v1/sessions/{id}/schedule", s.handleSchedule)
	s.mux.HandleFunc("GET /v1/sessions/{id}/analysis", s.handleAnalysis)
	s.mux.HandleFunc("GET /v1/sessions/{id}/gantt", s.handleGantt)
	s.mux.HandleFunc("POST /v1/sessions/{id}/search", s.handleSearchOpen)
	s.mux.HandleFunc("GET /v1/sessions/{id}/search", s.handleSearchInfo)
	s.mux.HandleFunc("POST /v1/sessions/{id}/search/step", s.handleSearchStep)
	s.mux.HandleFunc("GET /v1/sessions/{id}/search/best", s.handleSearchBest)
	s.mux.HandleFunc("GET /v1/sessions/{id}/search/snapshot", s.handleSearchSnapshot)
	s.mux.HandleFunc("POST /v1/sessions/{id}/search/resume", s.handleSearchResume)
	s.mux.Handle("GET /metrics", m.Registry().Handler())
	s.mux.Handle("GET /debug/vars", m.Registry().VarsHandler())
	s.httpMet = obs.NewHTTPMetrics(m.Registry(), "serve")
	s.handler = obs.Instrument(s.httpMet, nil, s.mux)
	return s
}

// SetAccessLog turns on structured access logging through log (nil turns
// it off). Call before serving traffic — the handler is swapped, not
// locked.
func (s *Server) SetAccessLog(log *slog.Logger) {
	s.handler = obs.Instrument(s.httpMet, log, s.mux)
}

func (s *Server) handleSearchOpen(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	info, err := s.m.OpenSearch(r.PathValue("id"), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleSearchInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.m.SearchInfo(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleSearchStep(w http.ResponseWriter, r *http.Request) {
	var req StepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.m.StepSearch(r.PathValue("id"), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSearchBest(w http.ResponseWriter, r *http.Request) {
	res, err := s.m.SearchBest(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleSearchSnapshot(w http.ResponseWriter, r *http.Request) {
	snap, err := s.m.SearchSnapshot(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleSearchResume(w http.ResponseWriter, r *http.Request) {
	var req SearchSnapshot
	if !decodeBody(w, r, &req) {
		return
	}
	info, err := s.m.ResumeSearch(r.PathValue("id"), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		OK:                true,
		Sessions:          s.m.Len(),
		UptimeSec:         time.Since(s.start).Seconds(),
		GoVersion:         runtime.Version(),
		RecoveredSessions: s.m.RecoveredSessions(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				resp.Revision = kv.Value
			case "vcs.time":
				resp.BuildTime = kv.Value
			case "vcs.modified":
				resp.Modified = kv.Value == "true"
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	infos := scheduler.Infos()
	out := make([]AlgorithmInfo, len(infos))
	for i, info := range infos {
		out[i] = AlgorithmInfo{Name: info.Name, Kind: info.Kind.String(), Summary: info.Summary}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	info, err := s.m.Create(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.List())
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.m.Info(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.m.Delete(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !queryBool(r, "stream") {
		res, err := s.m.Run(r.Context(), r.PathValue("id"), req, nil)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}

	// Streaming: NDJSON, one RunEvent per line — throttled progress
	// events, then exactly one result or error event. Progress callbacks
	// arrive from the session's worker goroutine, but only while this
	// handler is blocked inside Run, so writes never interleave.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	var lastSent time.Time
	var pending *ProgressEvent
	emit := func(ev RunEvent) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	res, err := s.m.Run(r.Context(), r.PathValue("id"), req, func(p ProgressEvent) {
		ev := p
		if now := time.Now(); now.Sub(lastSent) >= progressInterval {
			lastSent = now
			pending = nil
			emit(RunEvent{Progress: &ev})
			return
		}
		// Throttled: hold the event so the final iteration still reaches
		// the client even when it lands inside the throttle window.
		pending = &ev
	})
	if pending != nil {
		emit(RunEvent{Progress: pending})
	}
	if err != nil {
		emit(RunEvent{Error: err.Error()})
		return
	}
	emit(RunEvent{Result: &res})
}

func (s *Server) handleApplyEvent(w http.ResponseWriter, r *http.Request) {
	var ev live.Event
	if !decodeBody(w, r, &ev) {
		return
	}
	info, err := s.m.ApplyEvent(r.PathValue("id"), ev)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleMove(w http.ResponseWriter, r *http.Request) {
	var req MoveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.m.Move(r.PathValue("id"), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	res, err := s.m.Schedule(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	res, err := s.m.Analysis(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleGantt(w http.ResponseWriter, r *http.Request) {
	width := 0
	if q := r.URL.Query().Get("width"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeErr(w, fmt.Errorf("%w: width %q", ErrBadRequest, q))
			return
		}
		width = v
	}
	chart, err := s.m.Gantt(r.PathValue("id"), width)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, chart)
}

// queryBool reads a boolean query parameter: absent, "0" and "false" are
// off; "1" and "true" (any ParseBool truth) are on.
func queryBool(r *http.Request, name string) bool {
	v, err := strconv.ParseBool(r.URL.Query().Get(name))
	return err == nil && v
}

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		writeErr(w, fmt.Errorf("%w: body: %v", ErrBadRequest, err))
		return false
	}
	return true
}

// writeJSON encodes v before it writes the status line, so a value that
// does not encode (a non-finite float, say) becomes a 500 with an
// ErrorBody instead of a success status with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		enc.Encode(ErrorBody{Error: fmt.Sprintf("serve: encode response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrClosed):
		code = http.StatusConflict
	}
	writeJSON(w, code, ErrorBody{Error: err.Error()})
}
