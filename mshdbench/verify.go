package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/live"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// checker compares everything the servers returned with in-process
// replays of the same op logs, and with re-evaluation of every returned
// solution. Each op that errored or mismatched counts as failed once.
type checker struct {
	rec    *recorder
	failed map[*result]bool
	notes  []string // first mismatches, for the report
	other  int      // mismatches not tied to one timed op (final bests)
}

func newChecker(rec *recorder) *checker {
	return &checker{rec: rec, failed: map[*result]bool{}}
}

func (c *checker) fail(r *result, format string, args ...any) {
	if r != nil {
		c.failed[r] = true
	} else {
		c.other++
	}
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// countErrors marks every transport error and non-2xx reply as failed.
func (c *checker) countErrors(p *plan, res [][]result) {
	for ci := range res {
		for j := range res[ci] {
			if r := &res[ci][j]; r.err != nil {
				o := p.Conns[ci][j]
				c.fail(r, "conn %d op %d (%s of session %d, owner %d): %v", ci, j, o.Kind, o.Session, p.Sessions[o.Session].Owner, r.err)
			}
		}
	}
}

// version is one state of a session's (possibly amended) workload.
type version struct {
	g   *taskgraph.Graph
	sys *platform.System
}

// versions returns the session's workload after 0, 1, … of its trace
// events, each an independent decoded copy.
func versions(s sessionSpec) ([]version, *workload.Workload, error) {
	w, err := workload.Decode(bytes.NewReader(s.Doc))
	if err != nil {
		return nil, nil, err
	}
	vs := []version{{w.Graph, w.System}}
	if len(s.Events) == 0 {
		return vs, w, nil
	}
	p := live.NewProblem(w)
	for k, ev := range s.Events {
		if _, err := p.Apply(ev); err != nil {
			return nil, nil, fmt.Errorf("event %d: %w", k, err)
		}
		var buf bytes.Buffer
		if err := workload.Encode(&buf, p.Workload()); err != nil {
			return nil, nil, err
		}
		wk, err := workload.Decode(&buf)
		if err != nil {
			return nil, nil, err
		}
		vs = append(vs, version{wk.Graph, wk.System})
	}
	return vs, w, nil
}

// check parses a returned solution, validates it against the workload and
// re-evaluates it to the reported makespan.
func (v version) check(sol string, ms float64) error {
	s, err := schedule.Parse(sol)
	if err != nil {
		return fmt.Errorf("parse: %v", err)
	}
	if err := schedule.Validate(s, v.g, v.sys); err != nil {
		return fmt.Errorf("invalid: %v", err)
	}
	if got := schedule.NewEvaluator(v.g, v.sys).Makespan(s); got != ms {
		return fmt.Errorf("reported makespan %v, re-evaluated %v", ms, got)
	}
	return nil
}

// checkRead checks a best or schedule read against every workload version
// the server may have answered it on.
func checkRead(vs []version, r *result, kind opKind) error {
	sol, ms := r.best.Solution, r.best.Makespan
	if kind == opSchedule {
		sol, ms = r.sched.Solution, r.sched.Makespan
	}
	var errs []error
	for k := int(r.lo); k <= int(r.hi) && k < len(vs); k++ {
		err := vs[k].check(sol, ms)
		if err == nil {
			return nil
		}
		errs = append(errs, fmt.Errorf("version %d: %w", k, err))
	}
	return errors.Join(errs...)
}

// sameResult compares a wire result with the replay's, ignoring time.
func sameResult(got serve.Result, want scheduler.Result) error {
	if got.Solution != want.Best.Format() || got.Makespan != want.Makespan ||
		got.Iterations != want.Iterations || got.Evaluations != want.Evaluations ||
		got.DeltaEvaluations != want.DeltaEvaluations || got.GenesEvaluated != want.GenesEvaluated {
		return fmt.Errorf("served makespan %v iterations %d genes %d, replay makespan %v iterations %d genes %d (solutions equal: %v)",
			got.Makespan, got.Iterations, got.GenesEvaluated, want.Makespan, want.Iterations, want.GenesEvaluated,
			got.Solution == want.Best.Format())
	}
	return nil
}

// sameProgress compares a step reply's observation with the replay's.
func sameProgress(got serve.ProgressEvent, want scheduler.Progress) bool {
	return got.Iteration == want.Iteration && got.Current == want.Current &&
		got.Best == want.Best && got.Selected == want.Selected
}

// replayed is a session's in-process state after its replay, for the
// traced run's layer probes.
type replayed struct {
	w      *workload.Workload
	search scheduler.Search
	vs     []version
}

// replaySearch checks a one-connection search workload (search-heavy,
// dist-2w): each session's op log is replayed on an in-process search of
// algo, and every step observation, best read and final best must match
// the served ones exactly. se-dist is replayed as se-shard with the same
// seed and shard count, which it matches bit for bit.
func (c *checker) replaySearch(p *plan, res []result, finals []serve.Result, algo string) []replayed {
	ctx := context.Background()
	out := make([]replayed, len(p.Sessions))
	for i, s := range p.Sessions {
		opID := fmt.Sprintf("replay-%d", i)
		root := c.rec.begin("replay.session", opID, 0)
		var w *workload.Workload
		var err error
		c.rec.time("workload.Decode", opID, root, func() { w, err = workload.Decode(bytes.NewReader(s.Doc)) })
		if err != nil {
			c.fail(nil, "session %d: decode: %v", i, err)
			c.rec.end(root)
			continue
		}
		v := version{w.Graph, w.System}
		opts := []scheduler.Option{scheduler.WithSeed(s.Seed)}
		if s.Shards > 0 {
			opts = append(opts, scheduler.WithShards(s.Shards))
		}
		var srch scheduler.Search
		c.rec.time("scheduler.Open", opID, root, func() { srch, err = scheduler.Open(algo, w.Graph, w.System, opts...) })
		if err != nil {
			c.fail(nil, "session %d: open %s: %v", i, algo, err)
			c.rec.end(root)
			continue
		}
		var last *result
		for j, o := range p.Conns[0] {
			if o.Session != i {
				continue
			}
			r := &res[j]
			switch o.Kind {
			case opStep:
				var pr scheduler.Progress
				c.rec.time("scheduler.Search.Step", opID, root, func() { pr, _ = srch.Step(ctx) })
				if r.err == nil && (r.step.Performed != 1 || !sameProgress(r.step.Progress, pr)) {
					c.fail(r, "session %d op %d: step observation %+v, replay %+v", i, j, r.step.Progress, pr)
				}
				last = r
			case opBest:
				var b scheduler.Result
				c.rec.time("scheduler.Search.Best", opID, root, func() { b = srch.Best() })
				if r.err != nil {
					continue
				}
				if err := sameResult(r.best, b); err != nil {
					c.fail(r, "session %d op %d: best read: %v", i, j, err)
				} else if err := v.check(r.best.Solution, r.best.Makespan); err != nil {
					c.fail(r, "session %d op %d: best read: %v", i, j, err)
				}
				if last != nil && last.err == nil && last.step.BestMakespan != b.Makespan {
					c.fail(last, "session %d: step reported best %v, replay %v", i, last.step.BestMakespan, b.Makespan)
				}
			}
		}
		var b scheduler.Result
		c.rec.time("scheduler.Search.Best", opID, root, func() { b = srch.Best() })
		if err := sameResult(finals[i], b); err != nil {
			c.fail(nil, "session %d: final best: %v", i, err)
		} else if err := v.check(finals[i].Solution, finals[i].Makespan); err != nil {
			c.fail(nil, "session %d: final best: %v", i, err)
		}
		c.rec.end(root)
		out[i] = replayed{w: w, search: srch, vs: []version{v}}
	}
	return out
}

// replayManager checks serve-mix: an in-process serve.Manager is fed each
// session's writes and move queries in its owner's order, and every reply
// and final best must match the served ones. Reads of any session are
// checked by re-evaluation against the workload versions they may have
// seen.
func (c *checker) replayManager(p *plan, warm []result, res [][]result, finals []serve.Result) []replayed {
	mgr := serve.NewManager(serve.Options{MaxSessions: len(p.Sessions) + 1})
	defer mgr.Close()
	out := make([]replayed, len(p.Sessions))
	for i, s := range p.Sessions {
		opID := fmt.Sprintf("replay-%d", i)
		root := c.rec.begin("replay.session", opID, 0)
		vs, w, err := versions(s)
		if err != nil {
			c.fail(nil, "session %d: workload versions: %v", i, err)
			c.rec.end(root)
			continue
		}
		out[i] = replayed{w: w, vs: vs}
		var info serve.SessionInfo
		c.rec.time("serve.Manager.Create", opID, root, func() { info, err = mgr.Create(serve.CreateSessionRequest{Workload: s.Doc}) })
		if err == nil {
			c.rec.time("serve.Manager.OpenSearch", opID, root, func() {
				_, err = mgr.OpenSearch(info.ID, serve.RunRequest{Algorithm: s.Algo, Seed: s.Seed})
			})
		}
		if err != nil {
			c.fail(nil, "session %d: replay set-up: %v", i, err)
			c.rec.end(root)
			continue
		}
		for j, o := range p.Warm {
			if o.Session == i {
				c.replayOp(mgr, info.ID, s, o, &warm[j], opID, root)
			}
		}
		for j, o := range p.Conns[s.Owner] {
			if o.Session == i && o.Kind.owned() {
				c.replayOp(mgr, info.ID, s, o, &res[s.Owner][j], opID, root)
			}
		}
		var b serve.Result
		c.rec.time("serve.Manager.SearchBest", opID, root, func() { b, err = mgr.SearchBest(info.ID) })
		b.ElapsedMS = finals[i].ElapsedMS
		if err != nil || b != finals[i] {
			c.fail(nil, "session %d: final best %+v, replay %+v (%v)", i, finals[i], b, err)
		}
		c.rec.end(root)
	}
	for ci, ops := range p.Conns {
		for j, o := range ops {
			r := &res[ci][j]
			if (o.Kind == opBest || o.Kind == opSchedule) && r.err == nil && out[o.Session].vs != nil {
				if err := checkRead(out[o.Session].vs, r, o.Kind); err != nil {
					c.fail(r, "conn %d op %d: %s read of session %d: %v", ci, j, o.Kind, o.Session, err)
				}
			}
		}
	}
	return out
}

// replayOp applies one owned op to the replay manager and compares the
// reply with the served one.
func (c *checker) replayOp(mgr *serve.Manager, id string, s sessionSpec, o op, r *result, opID string, root int) {
	var err error
	switch o.Kind {
	case opStep:
		var want serve.StepResponse
		c.rec.time("serve.Manager.StepSearch", opID, root, func() { want, err = mgr.StepSearch(id, serve.StepRequest{Steps: 1}) })
		want.Progress.ElapsedMS = r.step.Progress.ElapsedMS
		if r.err == nil && (err != nil || want.Performed != r.step.Performed || want.Done != r.step.Done ||
			want.Progress != r.step.Progress || want.BestMakespan != r.step.BestMakespan) {
			c.fail(r, "session %s: step %+v, replay %+v (%v)", id, r.step, want, err)
		}
	case opCommit, opMove:
		var want serve.MoveResponse
		c.rec.time("serve.Manager.Move", opID, root, func() { want, err = mgr.Move(id, o.Move) })
		if r.err == nil && (err != nil || want != r.move) {
			c.fail(r, "session %s: move %+v: %+v, replay %+v (%v)", id, o.Move, r.move, want, err)
		}
	case opEvent:
		var want serve.SessionInfo
		c.rec.time("serve.Manager.ApplyEvent", opID, root, func() { want, err = mgr.ApplyEvent(id, s.Events[o.Event]) })
		want.ID, want.Created = r.info.ID, r.info.Created
		if r.err == nil && (err != nil || want != r.info) {
			c.fail(r, "session %s: event %d: %+v, replay %+v (%v)", id, o.Event, r.info, want, err)
		}
	}
}
