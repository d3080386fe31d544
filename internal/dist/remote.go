package dist

// The coordinator's dispatch loop: one region round is one step RPC
// against the worker session hosting the region, with retry, re-placement
// on another worker, speculative straggler re-issue, and an in-process
// fallback — all safe because stepping a snapshot is deterministic, so
// every recovery path computes the same bytes the undisturbed path would.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/serve"
)

// stepOutcome is one successful region round: the region's new engine
// snapshot and the observation that produced it.
type stepOutcome struct {
	payload  []byte
	wireSize int
	resp     serve.StepResponse
	w        *worker
	session  string
}

// placeRegion creates a session for the region's subproblem on w and
// seeds it with the region's last accepted snapshot. It does not mutate
// rg — the caller commits the placement, so speculative placements can be
// abandoned without unwinding state.
func (e *Engine) placeRegion(ctx context.Context, w *worker, rg *region) (string, error) {
	info, err := w.client.CreateSession(ctx, serve.CreateSessionRequest{Workload: rg.doc})
	if err != nil {
		w.fail()
		return "", fmt.Errorf("dist: region %d: create session on %s: %w", rg.index, w.url, err)
	}
	env := scheduler.Envelope(regionAlgorithm, rg.tasks, rg.machines, rg.items, rg.payload)
	if _, err := w.client.ResumeSearch(ctx, info.ID, serve.SearchSnapshot{Algorithm: regionAlgorithm, Snapshot: env}); err != nil {
		w.fail()
		return "", fmt.Errorf("dist: region %d: resume on %s: %w", rg.index, w.url, err)
	}
	w.placed(1)
	return info.ID, nil
}

// stepSession advances one region session by a batch of generations and
// returns its new snapshot. Worker health and latency are recorded here.
func (e *Engine) stepSession(ctx context.Context, w *worker, session string) (stepOutcome, error) {
	start := time.Now()
	resp, err := w.client.StepSearch(ctx, session, serve.StepRequest{Steps: e.batch, Snapshot: true})
	if err != nil {
		w.fail()
		return stepOutcome{}, err
	}
	if resp.Snapshot == nil {
		w.fail()
		return stepOutcome{}, fmt.Errorf("dist: worker %s returned no snapshot", w.url)
	}
	name, payload, err := scheduler.EnvelopePayload(resp.Snapshot.Snapshot)
	if err != nil {
		w.fail()
		return stepOutcome{}, fmt.Errorf("dist: worker %s snapshot: %w", w.url, err)
	}
	if name != regionAlgorithm {
		w.fail()
		return stepOutcome{}, fmt.Errorf("dist: worker %s returned a %q snapshot, want %q", w.url, name, regionAlgorithm)
	}
	w.ok(time.Since(start))
	return stepOutcome{
		payload:  payload,
		wireSize: len(resp.Snapshot.Snapshot),
		resp:     resp,
		w:        w,
		session:  session,
	}, nil
}

// stepRegion drives one region through one round: step its current
// session, retrying with backoff and re-placing the region's last
// snapshot on another worker when its host fails, and falling back to
// stepping in-process when no worker can take it. Every path yields the
// same region state — determinism makes retry free.
func (e *Engine) stepRegion(ctx context.Context, rg *region) {
	// One request ID per region-round: retries, re-placements and hedge
	// replicas all carry it, so the coordinator's round and every worker
	// access-log line it caused correlate on one ID.
	ctx = serve.WithRequestID(ctx, obs.NewRequestID())
	for attempt := 0; attempt < maxStepAttempts; attempt++ {
		if attempt > 0 {
			e.met.retries.Inc()
			// Exponential backoff before re-attempting, bounded so a
			// round never stalls behind a long sleep.
			d := 10 * time.Millisecond << (attempt - 1)
			if d > 200*time.Millisecond {
				d = 200 * time.Millisecond
			}
			time.Sleep(d)
		}
		if rg.w == nil || !rg.w.healthy() {
			w := e.pool.pick(rg.w)
			if w == nil {
				break // no healthy worker: fall through to local stepping
			}
			sid, err := e.placeRegion(ctx, w, rg)
			if err != nil {
				continue
			}
			if rg.w != nil && rg.w != w {
				rg.w.placed(-1)
				e.met.redispatches.Inc()
			}
			rg.w, rg.session = w, sid
		}
		out, err := e.stepHedged(ctx, rg)
		if err == nil {
			e.accept(rg, out)
			return
		}
		// The host failed this round; force a re-placement next attempt.
		rg.w, rg.session = nil, ""
	}
	e.stepLocal(rg)
}

// stepHedged issues the round against the region's host and, when the
// host straggles past its hedge delay and another healthy worker is
// available, speculatively re-dispatches the same snapshot there —
// whichever replica answers first wins (both compute identical bytes).
func (e *Engine) stepHedged(ctx context.Context, rg *region) (stepOutcome, error) {
	type arrival struct {
		out stepOutcome
		err error
	}
	primary := rg.w
	ch := make(chan arrival, 2)
	go func() {
		out, err := e.stepSession(ctx, primary, rg.session)
		ch <- arrival{out, err}
	}()
	var timer <-chan time.Time
	if d := primary.hedgeDelay(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timer = t.C
	}
	pending := 1
	var firstErr error
	for pending > 0 {
		select {
		case a := <-ch:
			pending--
			if a.err == nil {
				if a.out.w != rg.w {
					// The hedge won: adopt its placement. The loser's
					// session is simply abandoned — the worker's idle
					// eviction collects it.
					if rg.w != nil {
						rg.w.placed(-1)
					}
					rg.w, rg.session = a.out.w, a.out.session
				}
				return a.out, nil
			}
			if firstErr == nil {
				firstErr = a.err
			}
		case <-timer:
			timer = nil
			backup := e.pool.pick(primary)
			if backup == nil {
				continue
			}
			e.met.hedges.Inc()
			pending++
			go func() {
				sid, err := e.placeRegion(ctx, backup, rg)
				if err != nil {
					ch <- arrival{err: err}
					return
				}
				out, err := e.stepSession(ctx, backup, sid)
				ch <- arrival{out, err}
			}()
		}
	}
	return stepOutcome{}, firstErr
}

// stepLocal advances the region in-process from its last accepted
// snapshot — the terminal fallback when no worker can host it. The local
// shard engine's region slot is synced first, so the in-process
// generations continue exactly where the remote ones stopped.
func (e *Engine) stepLocal(rg *region) {
	if err := e.local.SyncRegion(rg.index, rg.payload, rg.stalled, rg.best); err != nil {
		// The accepted payload does not restore: leave the region as it
		// was this round (it advances nothing) rather than poisoning the
		// run. Structural validation at accept time makes this
		// unreachable in practice.
		rg.lastOK = false
		return
	}
	var last = e.local.StepRegion(rg.index)
	for i := 1; i < e.batch; i++ {
		last = e.local.StepRegion(rg.index)
	}
	payload, err := e.local.RegionSnapshot(rg.index)
	if err != nil {
		rg.lastOK = false
		return
	}
	rg.payload = payload
	rg.lastCurrent = last.Current
	rg.lastSelected = last.Selected
	rg.lastOK = true
	e.recordBest(rg, last.Best)
	e.met.localSteps.Add(uint64(e.batch))
}

// accept commits a successful round: the region's new authoritative
// snapshot and its observation bookkeeping.
func (e *Engine) accept(rg *region, out stepOutcome) {
	rg.payload = out.payload
	rg.lastCurrent = out.resp.Progress.Current
	rg.lastSelected = out.resp.Progress.Selected
	rg.lastOK = true
	e.recordBest(rg, out.resp.Progress.Best)
	e.met.rpcs.Inc()
	e.met.snapshotBytes.Add(uint64(out.wireSize))
}

// recordBest updates the region's best-so-far makespan and its
// stagnation counter, mirroring shard.Engine's per-region tracking.
func (e *Engine) recordBest(rg *region, best float64) {
	if rg.best == 0 || best < rg.best {
		rg.best = best
		rg.sinceImproved = 0
	} else {
		rg.sinceImproved += e.batch
	}
}
