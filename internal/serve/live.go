package serve

// Online amendment: POST /v1/sessions/{id}/events feeds one live churn
// event (internal/live) into a session — a task batch arrives, a machine
// joins, leaves or changes speed — and the session absorbs it without
// losing its scheduling state. The workload is amended in place, the
// pinned base and best solutions are spliced onto the new problem shape,
// the evaluator is re-pinned, and a pinned resumable search — when one
// is open — is warm-started through scheduler.Rebase, keeping its rng
// stream position and effort ledger. Because an amendment drops the
// session's cached workload document, the next record encodes the
// amended workload, so durability composes for free: a spilled-then-
// revived (or crashed-and-recovered) session comes back with the amended
// DAG, not the one it was created with.

import (
	"fmt"
	"time"

	"repro/internal/live"
	"repro/internal/schedule"
	"repro/internal/scheduler"
)

// ApplyEvent amends the session's workload with one live churn event and
// returns the session's post-amendment info. Sessions whose pinned
// search cannot be warm-started (a constructive heuristic, say) reject
// the event with ErrBadRequest before any state changes; invalid events
// are rejected the same way, leaving the session untouched.
func (m *Manager) ApplyEvent(id string, ev live.Event) (SessionInfo, error) {
	err := m.do(id, func(s *Session) error {
		start := time.Now()
		if s.search != nil && !scheduler.CanRebase(s.search) {
			return fmt.Errorf("%w: pinned search %q cannot be warm-started across an amendment; delete it first or pin a rebasable algorithm (se, se-live)",
				ErrBadRequest, s.searchAlgo)
		}
		if s.live == nil {
			// Lazy: the amendment state is derived entirely from the
			// session's current workload, so a revived session picks up
			// exactly where the spilled one left off.
			s.live = live.NewProblem(s.w)
		}
		var cur, best schedule.String
		if s.search != nil {
			cur, _ = scheduler.CurrentSolution(s.search)
			best = s.search.Best().Best
		}
		splice, err := s.live.Apply(ev)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		amended := s.live.Workload()
		if s.search != nil {
			ns, err := scheduler.Rebase(s.search, amended.Graph, amended.System, splice(cur), splice(best))
			if err != nil {
				// The amendment already landed in the live problem; dropping
				// the cached problem forces the next event to rebuild it from
				// s.w, keeping problem and session consistent.
				s.live = nil
				return err
			}
			s.search = ns
		}
		s.w = amended
		s.wdoc = nil
		s.lower = schedule.LowerBound(amended.Graph, amended.System)
		newBase := splice(s.delta.Base())
		s.delta = schedule.NewDeltaEvaluator(amended.Graph, amended.System)
		s.delta.Pin(newBase)
		s.best = splice(s.best)
		s.bestMs = schedule.NewEvaluator(amended.Graph, amended.System).Makespan(s.best)
		s.publishStatus()
		m.persist(s)
		m.met.live.Amended(ev, time.Since(start))
		return nil
	})
	if err != nil {
		return SessionInfo{}, err
	}
	return m.Info(id)
}
