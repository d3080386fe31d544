package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/live"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// perLayerNames are the per-layer metrics every workload's traced run
// reports and BENCHMARK.json lists. Layer metrics only one workload
// exercises (shard, dist, store, live, the manager replay) are printed
// and saved with the results but left out of the result line.
var perLayerNames = []string{
	"schedule.genes_per_gen", "schedule.full_per_gen", "schedule.delta_per_gen",
	"schedule.abort_ratio", "schedule.pin_us", "schedule.move_us",
	"core.step_ms", "core.selected_per_gen",
	"scheduler.best_ms", "scheduler.snapshot_us", "scheduler.snapshot_bytes", "scheduler.restore_ms",
	"serve.server_ms.step", "serve.server_ms.read", "serve.http_overhead_ms",
	"workload.encode_us", "workload.decode_us",
	"proc.alloc_kb_per_op", "proc.gc_per_kop",
	"host.probe_ms", "host.steal_pct", "trace.overhead_ratio",
}

// probeSessions caps how many sessions the in-process layer probes visit.
const probeSessions = 4

// layerCounts are the exact counts the in-process probes collect.
type layerCounts struct {
	coreDelta, coreAborted   uint64
	snapshotBytes, snapshots int
}

// probeLayers times single layers in process on the run's own sessions,
// recording a span around every call into a layer.
func probeLayers(ctx context.Context, p *plan, reps []replayed, rec *recorder, workerURLs []string, runDir string) layerCounts {
	var lc layerCounts
	n := min(probeSessions, len(reps))
	for i := 0; i < n; i++ {
		rp, s := reps[i], p.Sessions[i]
		if rp.w == nil {
			continue
		}
		opID := fmt.Sprintf("probe-%d", i)
		root := rec.begin("probe.session", opID, 0)
		probeSession(ctx, rp, s, rec, opID, root, &lc)
		rec.end(root)
	}

	switch {
	case p.Workers > 0:
		probeDist(reps[0], p.Sessions[0], rec, workerURLs)
	case p.Durable:
		probeLive(ctx, p, reps, rec)
		probeStore(p, reps, rec, filepath.Join(runDir, "probe-store"))
	}
	return lc
}

// probeSession times the evaluator, the search envelope and the SE engine
// on one session, inside span root. The probes only time calls on inputs
// the replay already validated, so their results and errors are dropped.
func probeSession(ctx context.Context, rp replayed, s sessionSpec, rec *recorder, opID string, root int, lc *layerCounts) {
	final := rp.vs[len(rp.vs)-1]

	var buf bytes.Buffer
	rec.time("workload.Encode", opID, root, func() { _ = workload.Encode(&buf, rp.w) })
	rec.time("workload.Decode", opID, root, func() { _, _ = workload.Decode(bytes.NewReader(s.Doc)) })

	// The evaluator: pin the session's best and query seeded
	// re-matching moves against it.
	srch := rp.search
	if srch == nil {
		// serve-mix keeps its searches inside the manager; open one
		// on the session's final workload instead.
		var err error
		rec.time("scheduler.Open", opID, root, func() { srch, err = scheduler.Open("se", final.g, final.sys, scheduler.WithSeed(s.Seed)) })
		if err != nil {
			return
		}
		for k := 0; k < heavyGens; k++ {
			rec.time("scheduler.Search.Step", opID, root, func() { srch.Step(ctx) })
		}
	}
	var best scheduler.Result
	rec.time("scheduler.Search.Best", opID, root, func() { best = srch.Best() })
	g, sys := final.g, final.sys
	if rp.search != nil {
		g, sys = rp.w.Graph, rp.w.System
	}
	d := schedule.NewDeltaEvaluator(g, sys)
	rec.time("schedule.DeltaEvaluator.Pin", opID, root, func() { d.Pin(best.Best) })
	rng := rand.New(rand.NewSource(s.Seed))
	for k := 0; k < 64; k++ {
		idx := rng.Intn(len(best.Best))
		m := taskgraph.MachineID(rng.Intn(sys.NumMachines()))
		rec.time("schedule.DeltaEvaluator.MoveMakespan", opID, root, func() {
			d.MoveMakespan(idx, idx, m, schedule.NoBound, schedule.NoBound)
		})
	}

	// The search envelope: snapshot and restore.
	var snap []byte
	var err error
	rec.time("scheduler.Search.Snapshot", opID, root, func() { snap, err = srch.Snapshot() })
	if err == nil {
		lc.snapshotBytes += len(snap)
		lc.snapshots++
		rec.time("scheduler.Restore", opID, root, func() { _, err = scheduler.Restore(srch.Name(), snap, g, sys) })
	}

	// The SE engine itself, stepped directly: se sessions on their own
	// problem, se-dist sessions on each region's induced subproblem —
	// what a worker steps for one round RPC.
	problems := []version{{g, sys}}
	if s.Shards > 0 {
		var se *shard.Engine
		rec.time("shard.PartitionLevelBands", opID, root, func() { shard.PartitionLevelBands(rp.w.Graph, s.Shards) })
		if se, err = shard.NewEngine(rp.w.Graph, rp.w.System, shard.Options{Shards: s.Shards, Seed: s.Seed}); err != nil {
			return
		}
		for k := 0; k < heavyGens; k++ {
			rec.time("shard.Engine.Step", opID, root, func() { se.Step() })
		}
		rec.time("shard.Engine.Result", opID, root, func() { se.Result() })
		problems = problems[:0]
		for r := 0; r < se.Regions(); r++ {
			rg, rsys := se.RegionProblem(r)
			problems = append(problems, version{rg, rsys})
		}
	}
	for r, pr := range problems {
		eng, err := core.NewEngine(pr.g, pr.sys, core.Options{Seed: s.Seed + int64(r)})
		if err != nil {
			continue
		}
		for k := 0; k < heavyGens; k++ {
			rec.time("core.Engine.Step", opID, root, func() { eng.Step() })
		}
		c := eng.Counts()
		lc.coreDelta += c.Delta
		lc.coreAborted += c.Aborted
	}
}

// probeDist steps an in-process dist coordinator against the run's live
// workers, so one round's coordinator-side cost is timed from outside; the
// replay has already checked what it computes, so results are dropped.
func probeDist(rp replayed, s sessionSpec, rec *recorder, workerURLs []string) {
	if rp.w == nil {
		return
	}
	var e *dist.Engine
	var err error
	rec.time("dist.NewEngine", "probe-dist", 0, func() {
		e, err = dist.NewEngine(rp.w.Graph, rp.w.System, dist.Options{
			Shard: shard.Options{Shards: s.Shards, Seed: s.Seed}, WorkerURLs: workerURLs,
		})
	})
	if err != nil {
		return
	}
	for k := 0; k < 40; k++ {
		rec.time("dist.Engine.Step", "probe-dist", 0, func() { e.Step() })
		if k%distReadEvery == distReadEvery-1 {
			rec.time("dist.Engine.Result", "probe-dist", 0, func() { _, _ = e.Result() })
		}
	}
}

// probeLive replays the sessions' churn events on live.Problem and warm-
// starts an se search across each through scheduler.Rebase.
func probeLive(ctx context.Context, p *plan, reps []replayed, rec *recorder) {
	for i := 0; i < min(probeSessions*2, len(reps)); i++ {
		rp, s := reps[i], p.Sessions[i]
		if rp.w == nil {
			continue
		}
		opID := fmt.Sprintf("probe-live-%d", i)
		pr := live.NewProblem(rp.w)
		srch, err := scheduler.Open("se", rp.w.Graph, rp.w.System, scheduler.WithSeed(s.Seed))
		if err != nil {
			continue
		}
		srch.Step(ctx)
		for _, ev := range s.Events {
			var splice live.Splice
			rec.time("live.Problem.Apply", opID, 0, func() { splice, err = pr.Apply(ev) })
			if err != nil {
				break
			}
			cur, _ := scheduler.CurrentSolution(srch)
			best := srch.Best().Best
			var ns scheduler.Search
			rec.time("scheduler.Rebase", opID, 0, func() { ns, err = scheduler.Rebase(srch, pr.Graph(), pr.System(), splice(cur), splice(best)) })
			if err != nil {
				break
			}
			var buf bytes.Buffer
			rec.time("workload.Encode", opID, 0, func() { _ = workload.Encode(&buf, pr.Workload()) })
			srch = ns
			srch.Step(ctx)
		}
	}
}

// probeStore writes each session's search snapshot and workload document
// through a private scratch store the way the manager persists a session,
// then flushes and reads them back; only the times matter, so the scratch
// store's errors are dropped.
func probeStore(p *plan, reps []replayed, rec *recorder, dir string) {
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		return
	}
	defer st.Close()
	for i, rp := range reps {
		if rp.w == nil {
			continue
		}
		final := rp.vs[len(rp.vs)-1]
		srch, err := scheduler.Open("se", final.g, final.sys, scheduler.WithSeed(p.Sessions[i].Seed))
		if err != nil {
			continue
		}
		snap, err := srch.Snapshot()
		if err != nil {
			continue
		}
		payload := append(append([]byte(nil), p.Sessions[i].Doc...), snap...)
		id := fmt.Sprintf("s%d", i+1)
		rec.time("store.Put", id, 0, func() { st.Put(id, payload) })
	}
	rec.time("store.Flush", "probe-store", 0, func() { _ = st.Flush() })
	for i := range reps {
		id := fmt.Sprintf("s%d", i+1)
		rec.time("store.Get", id, 0, func() { st.Get(id) })
	}
}

// layerMetrics turns the traced pass, its replay and probe spans, and the
// daemons' /metrics deltas into per-layer figures.
func layerMetrics(p *plan, ps *pass, rec *recorder, lc layerCounts, untraced time.Duration, probeMs float64) map[string]metric {
	out := map[string]metric{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a layer the pass never reached; JSON cannot carry NaN
		}
		out[name] = metric{v, unit}
	}
	ms, us := time.Millisecond, time.Microsecond
	st := selfTimes(rec.spans)
	ops := float64(p.ops())

	// Exact effort from the served final results.
	var gens, genes, full, delta float64
	for _, f := range ps.finals {
		gens += float64(f.Iterations)
		genes += float64(f.GenesEvaluated)
		full += float64(f.Evaluations)
		delta += float64(f.DeltaEvaluations)
	}
	set("schedule.genes_per_gen", genes/gens, "count")
	set("schedule.full_per_gen", full/gens, "count")
	set("schedule.delta_per_gen", delta/gens, "count")
	abort := 0.0
	if lc.coreDelta > 0 {
		abort = float64(lc.coreAborted) / float64(lc.coreDelta)
	}
	set("schedule.abort_ratio", abort, "ratio")
	set("schedule.pin_us", meanSelf(st, "schedule.DeltaEvaluator.Pin", us), "us")
	set("schedule.move_us", meanSelf(st, "schedule.DeltaEvaluator.MoveMakespan", us), "us")

	selected, steps := 0.0, 0.0
	for c, opsC := range p.Conns {
		for j, o := range opsC {
			if r := &ps.res[c][j]; o.Kind == opStep && r.err == nil {
				selected += float64(r.step.Progress.Selected)
				steps++
			}
		}
	}
	set("core.step_ms", meanSelf(st, "core.Engine.Step", ms), "ms")
	set("core.selected_per_gen", selected/steps, "count")

	set("scheduler.best_ms", meanSelf(st, "scheduler.Search.Best", ms), "ms")
	set("scheduler.snapshot_us", meanSelf(st, "scheduler.Search.Snapshot", us), "us")
	set("scheduler.snapshot_bytes", float64(lc.snapshotBytes)/float64(max(lc.snapshots, 1)), "bytes")
	set("scheduler.restore_ms", meanSelf(st, "scheduler.Restore", ms), "ms")

	// Server-side time per request class from the front daemon's latency
	// histogram; the move endpoint carries committed moves too.
	front := len(ps.after) - 1
	fd := ps.after[front].delta(ps.before[front])
	const hist = "serve_http_request_duration_seconds"
	endpoint := func(e string) string { return `endpoint="` + e + `"` }
	step := endpoint("POST /v1/sessions/{id}/search/step")
	reads := []string{endpoint("POST /v1/sessions/{id}/move"), endpoint("GET /v1/sessions/{id}/search/best"), endpoint("GET /v1/sessions/{id}/schedule")}
	event := endpoint("POST /v1/sessions/{id}/events")
	serverMs := func(labels ...string) (sum, n float64) {
		for _, l := range labels {
			sum += fd.sum(hist+"_sum", l) * 1000
			n += fd.sum(hist+"_count", l)
		}
		return sum, n
	}
	stepSum, stepN := serverMs(step)
	readSum, readN := serverMs(reads...)
	eventSum, eventN := serverMs(event)
	set("serve.server_ms.step", stepSum/stepN, "ms")
	set("serve.server_ms.read", readSum/readN, "ms")
	if eventN > 0 {
		set("serve.server_ms.event", eventSum/eventN, "ms")
	}
	client := 0.0
	for _, name := range []string{"step", "commit", "event", "move", "best", "schedule"} {
		c := st["client."+name]
		client += float64(c.Dur) / float64(ms)
	}
	set("serve.http_overhead_ms", (client-stepSum-readSum-eventSum)/ops, "ms")

	var enc, dec spanStat
	enc, dec = st["workload.Encode"], st["workload.Decode"]
	set("workload.encode_us", float64(enc.Self)/float64(enc.N)/float64(us), "us")
	set("workload.decode_us", float64(dec.Self)/float64(dec.N)/float64(us), "us")

	var alloc, numGC float64
	for k := range ps.memAfter {
		alloc += ps.memAfter[k].TotalAlloc - ps.memBefore[k].TotalAlloc
		numGC += ps.memAfter[k].NumGC - ps.memBefore[k].NumGC
	}
	set("proc.alloc_kb_per_op", alloc/1024/ops, "KiB")
	set("proc.gc_per_kop", numGC*1000/ops, "count")
	set("host.probe_ms", probeMs, "ms")
	set("host.steal_pct", ps.steal, "%")
	set("trace.overhead_ratio", ps.wall.Seconds()/untraced.Seconds(), "ratio")

	switch {
	case p.Workers > 0:
		set("shard.partition_ms", meanSelf(st, "shard.PartitionLevelBands", ms), "ms")
		set("shard.round_ms", meanSelf(st, "shard.Engine.Step", ms), "ms")
		set("shard.merge_ms", meanSelf(st, "shard.Engine.Result", ms), "ms")
		rounds := fd.sum("dist_rounds_total")
		set("dist.round_ms", fd.sum("dist_round_duration_seconds_sum")*1000/fd.sum("dist_round_duration_seconds_count"), "ms")
		set("dist.rpcs_per_round", fd.sum("dist_rpcs_total")/rounds, "count")
		set("dist.wire_bytes_per_round", fd.sum("dist_snapshot_bytes_total")/rounds, "bytes")
		set("dist.faults", fd.sum("dist_retries_total")+fd.sum("dist_hedges_total")+fd.sum("dist_redispatches_total")+fd.sum("dist_local_steps_total"), "count")
		set("dist.inproc_round_ms", meanSelf(st, "dist.Engine.Step", ms), "ms")
		set("dist.inproc_result_ms", meanSelf(st, "dist.Engine.Result", ms), "ms")
	case p.Durable:
		set("serve.manager_us.step", meanSelf(st, "serve.Manager.StepSearch", us), "us")
		set("serve.manager_us.move", meanSelf(st, "serve.Manager.Move", us), "us")
		set("serve.manager_us.event", meanSelf(st, "serve.Manager.ApplyEvent", us), "us")
		set("serve.queue_wait_ms", stepSum/stepN-meanSelf(st, "serve.Manager.StepSearch", ms), "ms")
		set("serve.revives_per_kop", fd.sum("serve_sessions_recovered_total")*1000/ops, "count")
		set("serve.lru_evictions_per_kop", fd.sum("serve_sessions_evicted_total", `reason="lru"`)*1000/ops, "count")
		set("store.writes_per_op", fd.sum("store_writes_total")/ops, "count")
		set("store.bytes_per_op", fd.sum("store_bytes_total")/ops, "bytes")
		set("store.compactions", fd.sum("store_compactions_total"), "count")
		set("store.put_us", meanSelf(st, "store.Put", us), "us")
		set("store.get_us", meanSelf(st, "store.Get", us), "us")
		set("store.flush_ms", meanSelf(st, "store.Flush", ms), "ms")
		set("store.replay_s", ps.before[front].sum("serve_store_replay_seconds"), "s")
		set("snap.record_bytes", fd.sum("store_bytes_total")/fd.sum("store_writes_total"), "bytes")
		set("live.apply_us", meanSelf(st, "live.Problem.Apply", us), "us")
		set("live.rebase_us", meanSelf(st, "scheduler.Rebase", us), "us")
		set("live.repair_us_per_event", fd.sum("live_repair_ns_total")/1000/fd.sum("live_events_total"), "us")
		set("live.tasks_arrived", fd.sum("live_tasks_arrived_total"), "count")
	}
	return out
}
