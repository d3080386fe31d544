package serve

import (
	"bytes"
	"fmt"

	"repro/internal/scheduler"
	"repro/internal/workload"
)

// MaxStepsPerRequest caps one StepSearch call. A session's worker
// serializes requests, so an unbounded step count would let one client
// monopolize its session's queue; clients needing more iterations issue
// more requests (each is a fresh scheduling opportunity).
const MaxStepsPerRequest = 10_000

// searchOptions maps a request's tunables onto scheduler options — shared
// by Run and OpenSearch so a served search is configured exactly like a
// served one-shot run. The two observation options ride along on every
// search: the session's Progress tap and the manager's registry (which
// se-dist's coordinator exports its transport instruments into).
func (m *Manager) searchOptions(req RunRequest, s *Session) []scheduler.Option {
	opts := []scheduler.Option{
		scheduler.WithSeed(req.Seed),
		scheduler.WithWorkers(req.Workers),
		scheduler.WithBias(req.Bias),
		scheduler.WithY(req.Y),
		scheduler.WithPopulation(req.Population),
		scheduler.WithShards(req.Shards),
		scheduler.WithRoundBatch(req.RoundBatch),
		scheduler.WithObserver(s.observe),
		scheduler.WithMetrics(m.reg),
	}
	if len(req.WorkerURLs) > 0 {
		opts = append(opts, scheduler.WithWorkerURLs(req.WorkerURLs...))
	}
	if req.FullEval {
		opts = append(opts, scheduler.WithFullEval())
	}
	if req.FromBase {
		opts = append(opts, scheduler.WithInitial(s.delta.Base().Clone()))
	}
	return opts
}

// searchInfo snapshots the pinned search's status. Called on the worker.
func (s *Session) searchInfo() SearchInfo {
	res := s.search.Best()
	return SearchInfo{
		Algorithm:    s.searchAlgo,
		Iterations:   res.Iterations,
		BestMakespan: res.Makespan,
		Done:         searchDone(s.search),
	}
}

// searchDone reads the search's exhaustion flag without stepping it.
func searchDone(s scheduler.Search) bool {
	d, ok := s.(interface{ Done() bool })
	return ok && d.Done()
}

// OpenSearch pins a live resumable search in the session, replacing any
// previous one. The request's budget fields are ignored: a pinned search
// is driven externally through StepSearch, snapshotted through
// SearchSnapshot, and revived through ResumeSearch — that is the seam the
// sharded fan-out uses to dispatch region sweeps to remote workers.
func (m *Manager) OpenSearch(id string, req RunRequest) (SearchInfo, error) {
	var out SearchInfo
	err := m.do(id, func(s *Session) error {
		if _, ok := scheduler.Describe(req.Algorithm); !ok {
			return fmt.Errorf("%w: unknown algorithm %q (registered: %v)", ErrBadRequest, req.Algorithm, scheduler.Names())
		}
		search, err := scheduler.Open(req.Algorithm, s.w.Graph, s.w.System, m.searchOptions(req, s)...)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		s.search = search
		s.searchAlgo = req.Algorithm
		s.searchSeed = req.Seed
		out = s.searchInfo()
		m.persist(s)
		return nil
	})
	return out, err
}

// SearchInfo reports the pinned search's status.
func (m *Manager) SearchInfo(id string) (SearchInfo, error) {
	var out SearchInfo
	err := m.do(id, func(s *Session) error {
		if s.search == nil {
			return fmt.Errorf("%w: session has no open search", ErrBadRequest)
		}
		out = s.searchInfo()
		return nil
	})
	return out, err
}

// StepSearch advances the pinned search by req.Steps iterations (default
// 1, capped at MaxStepsPerRequest) on the session's worker, and reports
// the last iteration's observation. Stepping is where the session's
// scheduling state actually advances — the wire-level analogue of
// Search.Step.
func (m *Manager) StepSearch(id string, req StepRequest) (StepResponse, error) {
	var out StepResponse
	err := m.do(id, func(s *Session) error {
		if s.search == nil {
			return fmt.Errorf("%w: session has no open search", ErrBadRequest)
		}
		steps := req.Steps
		if steps <= 0 {
			steps = 1
		}
		if steps > MaxStepsPerRequest {
			steps = MaxStepsPerRequest
		}
		for i := 0; i < steps; i++ {
			if searchDone(s.search) {
				// Nothing left to execute: report Done without
				// fabricating an iteration.
				out.Done = true
				break
			}
			// The session's context bounds the loop: tearing the session
			// down stops the stepping at the next iteration boundary.
			pr, more := s.search.Step(s.ctx)
			if s.ctx.Err() != nil {
				return fmt.Errorf("serve: session %q %w", s.id, ErrClosed)
			}
			out.Performed++
			out.Progress = newProgressEvent(pr)
			if !more {
				out.Done = true
				break
			}
		}
		res := s.search.Best()
		out.BestMakespan = res.Makespan
		if req.Snapshot {
			data, err := s.search.Snapshot()
			if err != nil {
				return err
			}
			m.met.snapshotBytes.Add(uint64(len(data)))
			out.Snapshot = &SearchSnapshot{Algorithm: s.searchAlgo, Seed: s.searchSeed, Snapshot: data}
		}
		if res.Makespan < s.bestMs {
			// The search improved on the session's best: adopt and re-pin,
			// exactly as a completed Run would.
			s.best = res.Best.Clone()
			s.bestMs = res.Makespan
			s.delta.Pin(s.best)
		}
		s.publishStatus()
		m.persist(s)
		return nil
	})
	return out, err
}

// SearchBest returns the pinned search's best-so-far as a wire Result.
func (m *Manager) SearchBest(id string) (Result, error) {
	var out Result
	err := m.do(id, func(s *Session) error {
		if s.search == nil {
			return fmt.Errorf("%w: session has no open search", ErrBadRequest)
		}
		res := s.search.Best()
		out = NewResult(s.searchAlgo, s.searchSeed, &res, false)
		return nil
	})
	return out, err
}

// SearchSnapshot serializes the pinned search to versioned bytes. The
// search stays pinned and steppable; the snapshot is an independent copy
// of its state.
func (m *Manager) SearchSnapshot(id string) (SearchSnapshot, error) {
	var out SearchSnapshot
	err := m.do(id, func(s *Session) error {
		if s.search == nil {
			return fmt.Errorf("%w: session has no open search", ErrBadRequest)
		}
		data, err := s.search.Snapshot()
		if err != nil {
			return err
		}
		m.met.snapshotBytes.Add(uint64(len(data)))
		out = SearchSnapshot{Algorithm: s.searchAlgo, Seed: s.searchSeed, Snapshot: data}
		return nil
	})
	return out, err
}

// ResumeSearch pins a search restored from snapshot bytes, replacing any
// previous search. The snapshot must have been taken on a workload with
// this session's shape; corrupted bytes error without touching the
// pinned state.
func (m *Manager) ResumeSearch(id string, req SearchSnapshot) (SearchInfo, error) {
	var out SearchInfo
	err := m.do(id, func(s *Session) error {
		algo := req.Algorithm
		if algo == "" {
			a, err := scheduler.SnapshotAlgorithm(req.Snapshot)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			algo = a
		}
		search, err := scheduler.Restore(algo, req.Snapshot, s.w.Graph, s.w.System,
			scheduler.WithObserver(s.observe))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		s.search = search
		s.searchAlgo = algo
		s.searchSeed = req.Seed
		out = s.searchInfo()
		m.persist(s)
		return nil
	})
	return out, err
}

// Evict serializes the session to a SessionSnapshot — workload document,
// pinned base and best solutions, counters, and the live search if one is
// pinned — and tears the session down. Revive rebuilds an equivalent
// session, here or in another server process, with bit-identical
// scheduling state. The caller must have quiesced its own traffic to the
// session: requests racing the eviction fail with not-found once the
// teardown lands.
func (m *Manager) Evict(id string) (SessionSnapshot, error) {
	var out SessionSnapshot
	err := m.do(id, func(s *Session) error {
		var buf bytes.Buffer
		if err := workload.Encode(&buf, s.w); err != nil {
			return err
		}
		s.statMu.Lock()
		runs, commits := s.stat.runs, s.stat.commits
		s.statMu.Unlock()
		out = SessionSnapshot{
			Workload: buf.Bytes(),
			Base:     s.delta.Base().Format(),
			Best:     s.best.Format(),
			Runs:     runs,
			Commits:  commits,
		}
		if s.search != nil {
			data, err := s.search.Snapshot()
			if err != nil {
				return err
			}
			m.met.snapshotBytes.Add(uint64(len(data)))
			out.Search = &SearchSnapshot{Algorithm: s.searchAlgo, Seed: s.searchSeed, Snapshot: data}
		}
		return nil
	})
	if err != nil {
		return SessionSnapshot{}, err
	}
	if err := m.Delete(id); err != nil {
		return SessionSnapshot{}, err
	}
	return out, nil
}

// Revive rebuilds a session from an evicted SessionSnapshot under a fresh
// ID: the workload is decoded and validated like any untrusted upload,
// the base string re-pinned, the best solution re-evaluated (makespans
// are never trusted from the wire), and the search — if one was pinned —
// restored to continue bit-identically.
func (m *Manager) Revive(snapshot SessionSnapshot) (SessionInfo, error) {
	w, base, err := sessionSource(CreateSessionRequest{
		Workload: snapshot.Workload,
		Initial:  snapshot.Base,
	})
	if err != nil {
		return SessionInfo{}, err
	}
	s, err := m.install("", w, base, &snapshot)
	if err != nil {
		return SessionInfo{}, err
	}
	return s.info(), nil
}
