package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// result is what one request returned, kept for the checks that run after
// the timed phase.
type result struct {
	lat   time.Duration
	done  time.Time // when the reply arrived
	err   error
	step  serve.StepResponse
	move  serve.MoveResponse
	info  serve.SessionInfo
	best  serve.Result
	sched serve.ScheduleResponse
	// lo and hi bound how many of the session's trace events the server
	// may have applied when it answered a best or schedule read: reads
	// from the other connection race the owner's events.
	lo, hi int32
}

// driver issues a plan's requests over serve.Client, one closed loop per
// connection: each connection sends its next request only after the
// previous reply arrived.
type driver struct {
	p   *plan
	url string
	ids []string // server session id per plan session
	rec *recorder
	// Per-session trace events sent and answered by the owner.
	evSent, evDone []atomic.Int32
}

func newDriver(p *plan, url string, ids []string, rec *recorder) *driver {
	return &driver{p: p, url: url, ids: ids, rec: rec,
		evSent: make([]atomic.Int32, len(p.Sessions)), evDone: make([]atomic.Int32, len(p.Sessions))}
}

// run executes every connection's stream concurrently and returns the
// results aligned with plan.Conns, and when the phase started and how long
// it took.
func (d *driver) run(ctx context.Context) ([][]result, time.Time, time.Duration) {
	res := make([][]result, len(d.p.Conns))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range d.p.Conns {
		res[c] = make([]result, len(d.p.Conns[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.stream(ctx, fmt.Sprintf("c%d", c), d.p.Conns[c], res[c])
		}(c)
	}
	wg.Wait()
	return res, start, time.Since(start)
}

// stream issues ops in order on one connection.
func (d *driver) stream(ctx context.Context, conn string, ops []op, res []result) {
	cl := serve.NewClient(d.url).WithTimeout(2 * time.Minute)
	for i, o := range ops {
		rctx, sp := ctx, 0
		if d.rec != nil {
			sp = d.rec.begin("client."+o.Kind.String(), fmt.Sprintf("%s-%d", conn, i), 0)
			rctx = serve.WithRequestID(ctx, fmt.Sprintf("mshdbench-%d", sp))
		}
		start := time.Now()
		d.do(rctx, cl, o, &res[i])
		res[i].done = time.Now()
		res[i].lat = res[i].done.Sub(start)
		d.rec.end(sp)
	}
}

func (d *driver) do(ctx context.Context, cl *serve.Client, o op, r *result) {
	id := d.ids[o.Session]
	switch o.Kind {
	case opStep:
		r.step, r.err = cl.StepSearch(ctx, id, serve.StepRequest{Steps: 1})
	case opCommit, opMove:
		r.move, r.err = cl.Move(ctx, id, o.Move)
	case opEvent:
		d.evSent[o.Session].Add(1)
		r.info, r.err = cl.ApplyEvent(ctx, id, d.p.Sessions[o.Session].Events[o.Event])
		d.evDone[o.Session].Add(1)
	case opBest:
		r.lo = d.evDone[o.Session].Load()
		r.best, r.err = cl.SearchBest(ctx, id)
		r.hi = d.evSent[o.Session].Load()
	case opSchedule:
		r.lo = d.evDone[o.Session].Load()
		r.sched, r.err = cl.Schedule(ctx, id)
		r.hi = d.evSent[o.Session].Load()
	}
}

// openSessions uploads every session's workload and opens its search; it
// returns the server's session ids in plan order.
func openSessions(ctx context.Context, url string, p *plan, workerURLs []string) ([]string, error) {
	cl := serve.NewClient(url).WithTimeout(2 * time.Minute)
	ids := make([]string, len(p.Sessions))
	for i, s := range p.Sessions {
		info, err := cl.CreateSession(ctx, serve.CreateSessionRequest{Workload: s.Doc})
		if err != nil {
			return nil, fmt.Errorf("create session %d: %w", i, err)
		}
		if _, err := cl.OpenSearch(ctx, info.ID, serve.RunRequest{
			Algorithm: s.Algo, Seed: s.Seed, Shards: s.Shards, WorkerURLs: workerURLs,
		}); err != nil {
			return nil, fmt.Errorf("open search in session %d: %w", i, err)
		}
		ids[i] = info.ID
	}
	return ids, nil
}

// finalBests reads every session's best-so-far after the timed phase.
func finalBests(ctx context.Context, url string, ids []string) ([]serve.Result, error) {
	cl := serve.NewClient(url).WithTimeout(2 * time.Minute)
	out := make([]serve.Result, len(ids))
	for i, id := range ids {
		r, err := cl.SearchBest(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("final best of session %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}
