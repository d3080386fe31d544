package serve

// Durable sessions: the Manager's glue to internal/store. Every mutating
// request encodes the session's state — workload document (encoded once,
// on the first record, and cached until an amendment), pinned base and
// best solutions, counters, and the live search's snapshot — into a
// versioned session record and enqueues it on the write-behind store;
// idle/LRU/close eviction spills the final state the same way instead of
// losing it; NewManager replays the store on boot; and a request against
// a session that is in the store but not in the table revives it
// transparently under its original id. Because engine restores are
// bit-identical, a recovered session resumes exactly where its last
// persisted record left it — the recovery invariant CI's crash-smoke job
// enforces end to end.

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/snap"
	"repro/internal/workload"
)

// Session record format: the payload the Manager frames into store log
// records, decoded with the same hostile-input discipline as a client
// upload — a store directory is as untrusted as one.
const (
	sessionRecMagic   = "MSSR"
	sessionRecVersion = 1
)

// sessionRecord is a decoded session record: everything needed to revive
// the session — the workload document, the pinned base and best
// solutions, the request counters, and the pinned search's snapshot when
// one was live. Makespans are recomputed on revival rather than trusted.
type sessionRecord struct {
	Workload   []byte
	Base, Best string
	Runs       int
	Commits    int
	Search     *SearchSnapshot
}

// record encodes the session's durable state, encoding the workload
// document on first use. Worker goroutine only — it reads the evaluator's
// pinned base and snapshots the live search.
func (s *Session) record() ([]byte, error) {
	if s.wdoc == nil {
		var buf bytes.Buffer
		if err := workload.Encode(&buf, s.w); err != nil {
			return nil, err
		}
		s.wdoc = buf.Bytes()
	}
	w := snap.Borrow(sessionRecMagic, sessionRecVersion)
	w.Blob(s.wdoc)
	w.Str(s.delta.Base().Format())
	w.Str(s.best.Format())
	s.statMu.Lock()
	runs, commits := s.stat.runs, s.stat.commits
	s.statMu.Unlock()
	w.Int(runs)
	w.Int(commits)
	if s.search != nil {
		data, err := s.search.Snapshot()
		if err != nil {
			w.Release()
			return nil, err
		}
		w.Bool(true)
		w.Str(s.searchAlgo)
		w.I64(s.searchSeed)
		w.Blob(data)
	} else {
		w.Bool(false)
	}
	return w.Detach(), nil
}

// decodeSessionRecord decodes a stored session record. Corrupt bytes
// error, never panic.
func decodeSessionRecord(data []byte) (sessionRecord, error) {
	r, err := snap.NewReader(data, sessionRecMagic, sessionRecVersion)
	if err != nil {
		return sessionRecord{}, err
	}
	var out sessionRecord
	out.Workload = r.Blob()
	out.Base = r.Str()
	out.Best = r.Str()
	out.Runs = r.Int()
	out.Commits = r.Int()
	if r.Bool() {
		search := &SearchSnapshot{}
		search.Algorithm = r.Str()
		search.Seed = r.I64()
		search.Snapshot = r.Blob()
		out.Search = search
	}
	if err := r.Done(); err != nil {
		return sessionRecord{}, err
	}
	if out.Runs < 0 || out.Commits < 0 {
		return sessionRecord{}, fmt.Errorf("negative counters (%d runs, %d commits)", out.Runs, out.Commits)
	}
	return out, nil
}

// persist enqueues the session's current state on the write-behind store.
// Called on the session's worker goroutine at the end of every mutating
// request; a no-op without a store. Encoding failures keep the session
// serving — the store's last good record simply stands. A session already
// torn down writes nothing: checked under m.mu, where Delete cancels the
// session and removes its record together, so a request finishing after
// a Delete cannot bring the record back.
func (m *Manager) persist(s *Session) {
	if m.store == nil {
		return
	}
	rec, err := s.record()
	if err != nil {
		return
	}
	m.mu.Lock()
	if s.ctx.Err() == nil {
		m.store.Put(s.id, rec)
	}
	m.mu.Unlock()
}

// captureRecord runs record() on the session's worker goroutine from
// outside the request path — the spill path, where the session has
// already left the table, so do() cannot reach it.
func (m *Manager) captureRecord(s *Session) ([]byte, error) {
	type outcome struct {
		rec []byte
		err error
	}
	ch := make(chan outcome, 1)
	select {
	case s.reqs <- func() {
		rec, err := s.record()
		ch <- outcome{rec, err}
	}:
		o := <-ch
		return o.rec, o.err
	case <-s.ctx.Done():
		return nil, fmt.Errorf("serve: session %q %w", s.id, ErrClosed)
	}
}

// spill persists the session's final state to the store and tears it
// down: with a store configured, idle/LRU eviction and manager shutdown
// become migration to disk instead of loss — the next request for the
// session revives it transparently. The session must be in m.spilling
// (see detachLocked). Like persist, it writes nothing once the session is
// cancelled: a Delete since the session left the table cancelled it and
// removed its record, which must stay removed.
func (m *Manager) spill(s *Session, reason string) {
	var rec []byte
	if m.store != nil {
		// On an encoding failure or a torn-down session the store's last
		// good record stands, as in persist.
		rec, _ = m.captureRecord(s)
	}
	m.mu.Lock()
	if rec != nil && s.ctx.Err() == nil {
		m.store.Put(s.id, rec)
	}
	delete(m.spilling, s)
	m.mu.Unlock()
	m.finish(s, reason)
}

// numericID parses the numeric suffix of a generated session id ("s12" →
// 12), so boot replay can restart the id sequence above every stored id.
func numericID(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, err == nil
}

// recoverSessions is NewManager's boot replay: every stored session up to
// the session cap is revived eagerly (the rest stay spilled and revive on
// demand), and the id sequence resumes past the highest stored id so new
// sessions never collide with recovered ones. Runs before the manager
// serves any request.
func (m *Manager) recoverSessions() {
	start := time.Now()
	ids := m.store.IDs()
	sort.Slice(ids, func(i, j int) bool {
		ni, iok := numericID(ids[i])
		nj, jok := numericID(ids[j])
		if iok && jok {
			return ni < nj
		}
		if iok != jok {
			return iok
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		if n, ok := numericID(id); ok && n > m.nextID {
			m.nextID = n
		}
	}
	for _, id := range ids {
		if m.Len() >= m.opts.MaxSessions {
			break
		}
		if _, err := m.reviveFromStore(id); err == nil {
			m.recovered++
		}
	}
	m.met.replaySeconds.Set(time.Since(start).Seconds())
}

// reviveFromStore rebuilds a session from its stored record under its
// original id. The record crosses a trust boundary (a store directory can
// be copied between hosts), so the workload, solutions and search
// snapshot are validated exactly like a client upload. A lost revival
// race returns the session the winner installed.
func (m *Manager) reviveFromStore(id string) (*Session, error) {
	rec, ok := m.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("serve: %w: %q", ErrNotFound, id)
	}
	stored, err := decodeSessionRecord(rec)
	if err != nil {
		return nil, fmt.Errorf("%w: stored session %q: %v", ErrBadRequest, id, err)
	}
	w, err := workload.Decode(bytes.NewReader(stored.Workload))
	if err != nil {
		return nil, fmt.Errorf("%w: stored session %q: workload: %v", ErrBadRequest, id, err)
	}
	base, err := schedule.Parse(stored.Base)
	if err == nil {
		err = schedule.Validate(base, w.Graph, w.System)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: stored session %q: base solution: %v", ErrBadRequest, id, err)
	}
	s, err := m.install(id, w, base, &stored)
	if err == errSessionExists {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	m.met.sessionsRecovered.Inc()
	return s, nil
}

// adopt merges a stored record's state — best solution, pinned search,
// request counters — into a session install is still building, before
// any request can reach it. The stored best is adopted as is (its
// makespan re-evaluated, never trusted): it need not beat the base — a
// tie survives a committed neutral move, and a live amendment splices
// base and best independently — and a revived session must hold exactly
// the best a never-spilled one holds.
func (s *Session) adopt(rec sessionRecord) error {
	if rec.Best != "" {
		best, err := schedule.Parse(rec.Best)
		if err != nil {
			return fmt.Errorf("%w: best solution: %v", ErrBadRequest, err)
		}
		if err := schedule.Validate(best, s.w.Graph, s.w.System); err != nil {
			return fmt.Errorf("%w: best solution: %v", ErrBadRequest, err)
		}
		s.best = best
		s.bestMs = schedule.NewEvaluator(s.w.Graph, s.w.System).Makespan(best)
	}
	if rec.Search != nil {
		algo := rec.Search.Algorithm
		search, err := scheduler.Restore(algo, rec.Search.Snapshot, s.w.Graph, s.w.System,
			scheduler.WithObserver(s.observe))
		if err != nil {
			return fmt.Errorf("%w: search: %v", ErrBadRequest, err)
		}
		s.search = search
		s.searchAlgo = algo
		s.searchSeed = rec.Search.Seed
	}
	s.stat.runs += rec.Runs
	s.stat.commits += rec.Commits
	return nil
}
