// Package serve is the session-pinned batched serving layer: one process
// pins many (workload, base-string) pairs and answers run, move and
// analysis queries for concurrent search sessions, reusing the incremental
// evaluation engine's prefix checkpoints across requests.
//
// A Session owns a decoded workload, a pinned schedule.DeltaEvaluator and
// the best solution seen so far. Every session is backed by one worker
// goroutine with a request queue, so requests for the same session
// serialize — preserving the DeltaEvaluator's CommitMove rebase semantics
// and the service's bit-identical determinism — while distinct sessions
// run fully in parallel. The Manager owns the session table, an LRU
// capacity cap, and idle-session eviction.
//
// cmd/mshd exposes a Manager over HTTP/JSON (see server.go and wire.go);
// the Client in client.go and cmd/mshc's -server mode speak the same wire
// format.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/heuristics"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/store"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// errSessionExists is install's internal signal that the requested id is
// already live; revival treats it as losing a benign race.
var errSessionExists = errors.New("serve: session exists")

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound marks an unknown session ID (HTTP 404).
	ErrNotFound = errors.New("session not found")
	// ErrBadRequest marks an invalid request body or parameter (HTTP 400).
	ErrBadRequest = errors.New("bad request")
	// ErrClosed marks requests against a closed Manager or a session torn
	// down mid-request (HTTP 409).
	ErrClosed = errors.New("closed")
)

// DefaultMaxSessions is the Manager's session cap when Options.MaxSessions
// is zero.
const DefaultMaxSessions = 64

// Options configures a Manager.
type Options struct {
	// MaxSessions caps the number of live sessions; creating one past the
	// cap evicts the least-recently-used session. 0 = DefaultMaxSessions.
	MaxSessions int
	// IdleTimeout evicts sessions with no request activity for this long.
	// 0 disables idle eviction.
	IdleTimeout time.Duration

	// Metrics is the registry the manager's instruments register on — and
	// the one served searches export into (se-dist's coordinator gauges).
	// Nil gets a private registry, so instrumentation is always on; pass
	// the process registry to expose it on /metrics.
	Metrics *obs.Registry

	// Store, when non-nil, makes sessions durable: every mutating request
	// persists the session's state to it write-behind, eviction spills
	// instead of discarding, NewManager replays it on boot, and requests
	// against spilled sessions revive them transparently. The Manager
	// borrows the store; the caller closes it after Close.
	Store *store.Store

	// now substitutes the clock in tests.
	now func() time.Time
}

// Manager owns the session table.
type Manager struct {
	opts  Options
	reg   *obs.Registry
	met   *managerMetrics
	store *store.Store

	// recovered counts the sessions NewManager's boot replay revived;
	// written before the manager serves and immutable afterwards.
	recovered int

	mu       sync.Mutex
	sessions map[string]*Session
	// spilling holds the sessions an eviction or Close has taken out of
	// the table but not yet torn down, so Delete can still reach them.
	spilling map[*Session]struct{}
	nextID   uint64
	closed   bool

	evictStop chan struct{}
	evictDone chan struct{}
}

// Session is one pinned (workload, base-string) pair with its evaluation
// state. All mutable scheduling state (delta, best, bestMs) is owned by
// the session's worker goroutine and touched only inside queued requests;
// the fields under statMu are the read-side mirror for non-blocking
// status queries.
type Session struct {
	id      string
	w       *workload.Workload
	lower   float64
	created time.Time

	// wdoc caches the session's workload encoded as its canonical
	// document. It is encoded on first use (record) — only the durable
	// store reads it — and dropped when an amendment replaces w. Worker
	// goroutine only.
	wdoc []byte

	delta  *schedule.DeltaEvaluator
	best   schedule.String
	bestMs float64

	// live is the session's amendable problem view, built lazily from the
	// workload on the first churn event (see live.go). It always mirrors
	// w: amendments replace both together.
	live *live.Problem

	// search is the session's pinned resumable search, when one is open
	// (see search.go); searchAlgo/searchSeed label its wire results.
	search     scheduler.Search
	searchAlgo string
	searchSeed int64

	// observe is the session's Progress tap (see Manager.observer),
	// attached to every search and run the session executes.
	observe func(scheduler.Progress)

	statMu sync.Mutex
	stat   sessionStatus

	// lastUsed and pending are guarded by the Manager's mu.
	lastUsed time.Time
	pending  int

	reqs   chan func()
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

type sessionStatus struct {
	baseMakespan float64
	bestMakespan float64
	runs         int
	commits      int
}

// NewManager returns a running Manager. Close it to tear every session
// down.
func NewManager(opts Options) *Manager {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Manager{
		opts:     opts,
		reg:      reg,
		met:      newManagerMetrics(reg),
		store:    opts.Store,
		sessions: make(map[string]*Session),
		spilling: make(map[*Session]struct{}),
	}
	if m.store != nil {
		// Boot replay: revive what a previous process persisted before the
		// manager serves its first request.
		m.recoverSessions()
	}
	if opts.IdleTimeout > 0 {
		m.evictStop = make(chan struct{})
		m.evictDone = make(chan struct{})
		go m.evictLoop()
	}
	return m
}

func (m *Manager) evictLoop() {
	defer close(m.evictDone)
	interval := m.opts.IdleTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.evictStop:
			return
		case <-t.C:
			m.EvictIdle()
		}
	}
}

// EvictIdle tears down every session whose last activity is older than
// the idle timeout and which has no request in flight. It returns the IDs
// evicted. The Manager's background loop calls this periodically;
// exposing it keeps eviction testable without a real clock.
func (m *Manager) EvictIdle() []string {
	if m.opts.IdleTimeout <= 0 {
		return nil
	}
	now := m.opts.now()
	m.mu.Lock()
	var victims []*Session
	for _, s := range m.sessions {
		if s.pending == 0 && now.Sub(s.lastUsed) > m.opts.IdleTimeout {
			victims = append(victims, s)
			m.detachLocked(s)
		}
	}
	m.mu.Unlock()
	ids := make([]string, 0, len(victims))
	for _, s := range victims {
		m.spill(s, "idle")
		ids = append(ids, s.id)
	}
	return ids
}

// finish completes a session teardown after its table entry is gone:
// cancel, drain the worker, record the lifecycle metrics.
func (m *Manager) finish(s *Session, reason string) {
	s.cancel()
	<-s.done
	m.met.sessionDown(s.id, reason)
}

// Create builds a session from req's workload source, pins its base
// string, and returns the session's info. At the session cap, the
// least-recently-used session is evicted first.
func (m *Manager) Create(req CreateSessionRequest) (SessionInfo, error) {
	w, base, err := sessionSource(req)
	if err != nil {
		return SessionInfo{}, err
	}
	s, err := m.install("", w, base, nil)
	if err != nil {
		return SessionInfo{}, err
	}
	// Read the info off the session directly: a concurrent LRU/idle
	// eviction may already have removed it from the table, which must not
	// turn a successful creation into a not-found error.
	return s.info(), nil
}

// sessionSource resolves a CreateSessionRequest into its workload and base
// string: the validated Initial solution, or the best constructive
// solution as the deterministic default — a strong warm start for move
// queries and FromBase runs.
func sessionSource(req CreateSessionRequest) (*workload.Workload, schedule.String, error) {
	w, err := buildWorkload(req)
	if err != nil {
		return nil, nil, err
	}
	if req.Initial == "" {
		return w, heuristics.Best(w.Graph, w.System, 1).Solution, nil
	}
	base, err := schedule.Parse(req.Initial)
	if err == nil {
		err = schedule.Validate(base, w.Graph, w.System)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: initial solution: %v", ErrBadRequest, err)
	}
	return w, base, nil
}

// install builds a session for w pinned at base — with rec's state (best
// solution, restored search, counters) merged in when non-nil —
// and only then registers it, so no request can reach a half-built
// session. An empty id takes the next generated id; a non-empty id
// revives a stored session under its original identity and fails with
// errSessionExists when that id is already live (returning the live
// session). At the session cap, the least-recently-used session is
// spilled first.
func (m *Manager) install(id string, w *workload.Workload, base schedule.String, rec *sessionRecord) (*Session, error) {
	now := m.opts.now()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Session{
		w:        w,
		lower:    schedule.LowerBound(w.Graph, w.System),
		created:  now,
		lastUsed: now,
		delta:    schedule.NewDeltaEvaluator(w.Graph, w.System),
		best:     base.Clone(),
		reqs:     make(chan func()),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	s.bestMs, _ = s.delta.Pin(base)
	s.observe = m.observer(s)
	if rec != nil {
		if err := s.adopt(*rec); err != nil {
			cancel()
			return nil, err
		}
	}
	s.publishStatus()
	// The first record is encoded here and queued together with the table
	// insert below: a losing duplicate revival queues nothing, and a racing
	// Delete's removal always lands after it. An encoding failure leaves
	// nothing to queue, as in persist.
	var first []byte
	if m.store != nil {
		first, _ = s.record()
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("serve: manager %w", ErrClosed)
	}
	if id != "" {
		if live, ok := m.sessions[id]; ok {
			m.mu.Unlock()
			cancel()
			return live, errSessionExists
		}
	}
	var victims []*Session
	for len(m.sessions) >= m.opts.MaxSessions {
		lru := m.lruLocked()
		if lru == nil {
			break
		}
		m.detachLocked(lru)
		victims = append(victims, lru)
	}
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("s%d", m.nextID)
	}
	s.id = id
	m.sessions[s.id] = s
	if first != nil {
		m.store.Put(s.id, first)
	}
	m.mu.Unlock()
	m.met.sessionsCreated.Inc()
	m.met.sessionsLive.Add(1)

	go s.loop()
	for _, v := range victims {
		m.spill(v, "lru")
	}
	return s, nil
}

// detachLocked takes s out of the table for a spill, keeping it reachable
// to Delete until the spill is done. Callers hold m.mu.
func (m *Manager) detachLocked(s *Session) {
	delete(m.sessions, s.id)
	m.spilling[s] = struct{}{}
}

// lruLocked returns the least-recently-used session, preferring one with
// no request in flight. Callers hold m.mu.
func (m *Manager) lruLocked() *Session {
	var idle, any *Session
	for _, s := range m.sessions {
		if any == nil || s.lastUsed.Before(any.lastUsed) {
			any = s
		}
		if s.pending == 0 && (idle == nil || s.lastUsed.Before(idle.lastUsed)) {
			idle = s
		}
	}
	if idle != nil {
		return idle
	}
	return any
}

// loop is the session worker: it serializes every request against this
// session's evaluation state until the session is torn down.
func (s *Session) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.ctx.Done():
			return
		case fn := <-s.reqs:
			fn()
		}
	}
}

// publishStatus mirrors worker-owned state into the read side. Called only
// on the worker goroutine.
func (s *Session) publishStatus() {
	s.statMu.Lock()
	s.stat = sessionStatus{
		baseMakespan: s.delta.BaseMakespan(),
		bestMakespan: s.bestMs,
		runs:         s.stat.runs,
		commits:      s.stat.commits,
	}
	s.statMu.Unlock()
}

// acquire looks the session up and marks a request in flight against it.
// A miss against a durable store revives the stored session transparently
// — a spilled session is indistinguishable from a live one to clients —
// with one retry in case the revived session is evicted again in the gap.
func (m *Manager) acquire(id string) (*Session, error) {
	for attempt := 0; ; attempt++ {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, fmt.Errorf("serve: manager %w", ErrClosed)
		}
		if s, ok := m.sessions[id]; ok {
			s.pending++
			s.lastUsed = m.opts.now()
			m.mu.Unlock()
			return s, nil
		}
		m.mu.Unlock()
		if m.store == nil || attempt > 0 {
			return nil, fmt.Errorf("serve: %w: %q", ErrNotFound, id)
		}
		if _, err := m.reviveFromStore(id); err != nil {
			return nil, err
		}
	}
}

// release ends an in-flight request accounted by acquire.
func (m *Manager) release(s *Session) {
	m.mu.Lock()
	s.pending--
	s.lastUsed = m.opts.now()
	m.mu.Unlock()
}

// do queues fn on the session's worker and waits for it. Requests for one
// session execute strictly in submission order; sessions never share a
// worker, so distinct sessions proceed in parallel.
func (m *Manager) do(id string, fn func(*Session) error) error {
	s, err := m.acquire(id)
	if err != nil {
		return err
	}
	defer m.release(s)

	errc := make(chan error, 1)
	select {
	case s.reqs <- func() { errc <- fn(s) }:
		// Once accepted, fn runs to completion even if the session is
		// cancelled mid-way: cancellation propagates into the running
		// scheduler, which returns its best-so-far promptly.
		return <-errc
	case <-s.ctx.Done():
		return fmt.Errorf("serve: session %q %w", id, ErrClosed)
	}
}

// Run executes one registry algorithm inside the session and returns its
// wire Result. onProgress, when non-nil, observes each iteration (from the
// session's worker goroutine). The run is bounded by req's budget, the
// caller's ctx, and the session's own lifetime: tearing the session down
// cancels the run, which still returns its best-so-far (marked Cancelled).
// The run's search is built like OpenSearch's and driven by
// scheduler.Drive, but it is not pinned: the session's pinned search, if
// any, is left as it was.
func (m *Manager) Run(ctx context.Context, id string, req RunRequest, onProgress func(ProgressEvent)) (Result, error) {
	var out Result
	err := m.do(id, func(s *Session) error {
		info, ok := scheduler.Describe(req.Algorithm)
		if !ok {
			return fmt.Errorf("%w: unknown algorithm %q (registered: %v)", ErrBadRequest, req.Algorithm, scheduler.Names())
		}
		if info.Kind == scheduler.Metaheuristic &&
			req.MaxIterations <= 0 && req.TimeBudgetMS <= 0 && req.NoImprovement <= 0 {
			return fmt.Errorf("%w: algorithm %q needs a stopping criterion (max_iterations, time_budget_ms or no_improvement)", ErrBadRequest, req.Algorithm)
		}
		// A run cancelled before its first iteration has no best-so-far.
		// When the cancellation came from session teardown, report the
		// teardown (409), not a bare context error (500).
		if s.ctx.Err() != nil {
			return fmt.Errorf("serve: session %q %w", s.id, ErrClosed)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		search, err := m.openSearch(s, req)
		if err != nil {
			return err
		}

		// The run stops when the request's context is cancelled (client
		// gone), when the session is torn down, or when the budget is
		// exhausted — whichever comes first.
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		stop := context.AfterFunc(s.ctx, cancel)
		defer stop()

		b := req.Budget()
		if onProgress != nil {
			b.OnProgress = func(p scheduler.Progress) bool {
				onProgress(newProgressEvent(p))
				return true
			}
		}
		res, err := scheduler.Drive(runCtx, search, b)
		s.statMu.Lock()
		s.stat.runs++
		s.statMu.Unlock()
		m.met.runs.Inc()
		m.adoptBest(s, res)
		out = NewResult(req.Algorithm, req.Seed, res, err != nil)
		return nil
	})
	return out, err
}

// Move evaluates — and on req.Commit adopts — one move against the
// session's pinned base string, reusing the evaluator's checkpoints
// instead of re-evaluating the schedule.
func (m *Manager) Move(id string, req MoveRequest) (MoveResponse, error) {
	var out MoveResponse
	err := m.do(id, func(s *Session) error {
		base := s.delta.Base()
		n := len(base)
		if req.Index < 0 || req.Index >= n {
			return fmt.Errorf("%w: index %d out of range [0,%d)", ErrBadRequest, req.Index, n)
		}
		if req.Machine < 0 || req.Machine >= s.w.System.NumMachines() {
			return fmt.Errorf("%w: machine %d out of range [0,%d)", ErrBadRequest, req.Machine, s.w.System.NumMachines())
		}
		pos := make([]int, n)
		base.Positions(pos)
		lo, hi := schedule.ValidRange(s.w.Graph, base, pos, req.Index)
		if req.To < lo || req.To > hi {
			return fmt.Errorf("%w: position %d violates data dependencies of task s%d (valid range [%d,%d])",
				ErrBadRequest, req.To, base[req.Index].Task, lo, hi)
		}
		baseMs := s.delta.BaseMakespan()
		ms, tot, _ := s.delta.MoveMakespan(req.Index, req.To, taskgraph.MachineID(req.Machine), schedule.NoBound, schedule.NoBound)
		out = MoveResponse{
			Makespan:     ms,
			Total:        tot,
			BaseMakespan: baseMs,
			Improved:     ms < baseMs,
		}
		if req.Commit {
			newMs, _ := s.delta.CommitMove(req.Index, req.To, taskgraph.MachineID(req.Machine))
			out.Committed = true
			out.BaseMakespan = newMs
			s.statMu.Lock()
			s.stat.commits++
			s.statMu.Unlock()
			if newMs < s.bestMs {
				s.best = s.delta.Base().Clone()
				s.bestMs = newMs
			}
			s.publishStatus()
			m.persist(s)
		}
		return nil
	})
	return out, err
}

// Schedule returns the session's pinned base solution.
func (m *Manager) Schedule(id string) (ScheduleResponse, error) {
	var out ScheduleResponse
	err := m.do(id, func(s *Session) error {
		out = ScheduleResponse{
			Solution: s.delta.Base().Format(),
			Makespan: s.delta.BaseMakespan(),
		}
		return nil
	})
	return out, err
}

// Analysis analyzes the session's pinned base solution.
func (m *Manager) Analysis(id string) (AnalysisResponse, error) {
	var out AnalysisResponse
	err := m.do(id, func(s *Session) error {
		a := schedule.Analyze(s.w.Graph, s.w.System, s.delta.Base())
		out = AnalysisResponse{Analysis: a, Report: a.Report()}
		return nil
	})
	return out, err
}

// Gantt renders the session's pinned base solution as a text Gantt chart.
func (m *Manager) Gantt(id string, width int) (string, error) {
	var out string
	err := m.do(id, func(s *Session) error {
		out = schedule.Gantt(s.w.Graph, s.w.System, s.delta.Base(), width)
		return nil
	})
	return out, err
}

// Info returns the session's current status. Unlike the evaluation
// endpoints it does not queue behind in-flight runs: status reads come
// from the session's published mirror.
func (m *Manager) Info(id string) (SessionInfo, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		if m.store == nil {
			return SessionInfo{}, fmt.Errorf("serve: %w: %q", ErrNotFound, id)
		}
		// Status queries revive spilled sessions like evaluation requests do.
		revived, err := m.reviveFromStore(id)
		if err != nil {
			return SessionInfo{}, err
		}
		s = revived
	}
	return s.info(), nil
}

func (s *Session) info() SessionInfo {
	s.statMu.Lock()
	st := s.stat
	s.statMu.Unlock()
	return SessionInfo{
		ID:           s.id,
		Workload:     s.w.Name,
		Tasks:        s.w.Graph.NumTasks(),
		Machines:     s.w.System.NumMachines(),
		Items:        s.w.Graph.NumItems(),
		LowerBound:   s.lower,
		BaseMakespan: st.baseMakespan,
		BestMakespan: st.bestMakespan,
		Runs:         st.runs,
		Commits:      st.commits,
		Created:      s.created.UTC().Format(time.RFC3339Nano),
	}
}

// List returns every live session's info, sorted by ID.
func (m *Manager) List() []SessionInfo {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	out := make([]SessionInfo, len(sessions))
	for i, s := range sessions {
		out[i] = s.info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Registry returns the manager's metrics registry — the one its
// lifecycle instruments live on and served searches export into. The
// HTTP server mounts it on /metrics and /debug/vars.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Delete tears one session down: its context is cancelled (stopping any
// in-flight run at the next iteration boundary), its worker drained, and —
// with a durable store — its stored record removed, so a deleted session
// does not come back on the next boot replay. Deleting a session that
// lives only in the store (spilled, not revived) succeeds too.
//
// The table removal, the cancellation of the session and of any copy
// still being spilled, and the store removal happen together under m.mu;
// persist and spill write only for a session that is not cancelled,
// checked under the same lock. So neither a request still finishing on
// the worker nor a concurrent spill can write the deleted session back.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, live := m.sessions[id]
	if live {
		delete(m.sessions, id)
		s.cancel()
	}
	spilling := false
	for sp := range m.spilling {
		if sp.id == id {
			sp.cancel()
			spilling = true
		}
	}
	if m.store != nil && (live || spilling) {
		m.store.Delete(id)
	}
	m.mu.Unlock()
	switch {
	case live:
		m.finish(s, "delete")
		return nil
	case m.store == nil:
		return fmt.Errorf("serve: %w: %q", ErrNotFound, id)
	case !spilling:
		if _, stored := m.store.Get(id); !stored {
			return fmt.Errorf("serve: %w: %q", ErrNotFound, id)
		}
		m.store.Delete(id)
	}
	// The spill tears (or already tore) the live metrics down; only the
	// explicit deletion is left to account, plus a defensive sweep of any
	// per-session gauge children (see sessionDown).
	m.met.storedDown(id, "delete")
	return nil
}

// Close tears every session down — spilling each one's final state to the
// durable store, when one is configured — and stops the eviction loop. The
// Manager accepts no requests afterwards. The caller still owns closing
// the store itself (which flushes the spilled writes).
func (m *Manager) Close() { m.shutdown(true) }

// Crash tears every session down WITHOUT the spill pass — the kill(-9)
// seam for crash-recovery tests: whatever the write-behind store had not
// flushed is lost, exactly as if the process died. Production shutdown is
// Close.
func (m *Manager) Crash() { m.shutdown(false) }

// shutdown is Close (spill set) and Crash: it closes the manager, tears
// every live session down — spilling each first when spill is set — and
// stops the eviction loop.
func (m *Manager) shutdown(spill bool) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	sessions := m.sessions
	m.sessions = map[string]*Session{}
	if spill {
		for _, s := range sessions {
			m.spilling[s] = struct{}{}
		}
	}
	m.mu.Unlock()
	for _, s := range sessions {
		if spill {
			m.spill(s, "close")
		} else {
			s.cancel()
			<-s.done
		}
	}
	if m.evictStop != nil {
		close(m.evictStop)
		<-m.evictDone
	}
}

// RecoveredSessions reports how many sessions NewManager's boot replay
// revived from the durable store; /v1/healthz surfaces it.
func (m *Manager) RecoveredSessions() int { return m.recovered }

// buildWorkload resolves a CreateSessionRequest's workload source.
func buildWorkload(req CreateSessionRequest) (*workload.Workload, error) {
	sources := 0
	if len(req.Workload) > 0 {
		sources++
	}
	if req.Preset != "" {
		sources++
	}
	if req.Params != nil {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: provide exactly one of workload, preset or params (got %d)", ErrBadRequest, sources)
	}
	switch {
	case len(req.Workload) > 0:
		w, err := workload.Decode(bytes.NewReader(req.Workload))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return w, nil
	case req.Preset != "":
		w, err := workload.Preset(req.Preset)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return w, nil
	default:
		w, err := workload.Generate(*req.Params)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return w, nil
	}
}
