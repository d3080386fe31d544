// Command mshc matches and schedules a workload onto a heterogeneous
// machine suite using any scheduler in the registry: the paper's
// simulated evolution (se, plus the se-ils, sharded se-shard and
// distributed se-dist variants), the GA baseline of Wang et al. (ga),
// simulated annealing (sa), tabu search (tabu), the constructive
// heuristics (heft, cpop, minmin, maxmin, sufferage, mct, random), or
// all of them.
//
// se-dist fans shard regions out to remote mshd workers: pass their URLs
// as -workers host1:8037,host2:8037 (see README.md "Multi-machine").
//
// Runs execute in-process by default; with -server they execute inside a
// session of a running mshd daemon, over the same wire schema -json
// emits, so offline and served runs are interchangeable (and, for equal
// seeds and budgets, bit-identical).
//
// Usage:
//
//	mshc -list-algos
//	mshc -list-presets
//	mshc -algo se -iters 1000 -workload w.json
//	mshc -algo se-shard -shards 6 -preset xlarge -iters 50
//	mshc -algo heft -figure1
//	mshc -algo all -figure1
//	mshc -algo ga -budget 5s -workload w.json -v
//	mshc -algo se -figure1 -json
//	mshc -algo se -iters 500 -workload w.json -server http://localhost:8037
//	mshc -trace churn.json -v
//	wlgen -trace 200 -preset small | mshc -trace - -json
//
// -trace replays a live churn trace (wlgen -trace) through the online
// scheduling harness (internal/live): tasks arrive, machines join,
// leave and change speed mid-run, and the engine warm-starts across
// each amendment instead of restarting. -cold runs the cold-restart
// ablation the warm-start win is measured against.
//
// Runs are resumable: -snapshot FILE serializes the search's complete
// state (rng stream position included) after the budget, and -resume FILE
// continues a snapshotted search for another budget — bit-identical to
// never having stopped, so a 10-iteration run snapshotted and resumed for
// 10 more equals one 20-iteration run exactly:
//
//	mshc -algo se -iters 10 -seed 7 -preset large -snapshot se.snap
//	mshc -resume se.snap -iters 10 -preset large
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	_ "repro/internal/dist" // registers se-dist
	"repro/internal/live"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	var (
		path        = flag.String("workload", "", "workload JSON file (see wlgen)")
		figure1     = flag.Bool("figure1", false, "use the paper's Figure-1 example workload")
		preset      = flag.String("preset", "", "named built-in workload (see -list-presets)")
		algo        = flag.String("algo", "se", "registered algorithm name, or \"all\" (see -list-algos)")
		list        = flag.Bool("list-algos", false, "list registered algorithms and exit")
		listPresets = flag.Bool("list-presets", false, "list built-in workload presets and exit")
		iters       = flag.Int("iters", 1000, "iteration/generation/block budget")
		budget      = flag.Duration("budget", 0, "wall-clock budget (overrides -iters when set)")
		seed        = flag.Int64("seed", 1, "random seed")
		bias        = flag.Float64("bias", 0, "SE selection bias B (paper: -0.3…-0.1 small problems, 0…0.1 large)")
		yParam      = flag.Int("y", 0, "SE Y parameter: candidate machines per task (0 = all)")
		pop         = flag.Int("pop", 0, "GA population size (0 = default 50)")
		workers     = flag.String("workers", "", "an integer: parallel workers for SE allocation / GA fitness (0 = serial; for se-shard, caps concurrent region sweeps) — or, for se-dist, a comma-separated list of mshd worker URLs (host:port or http://host:port)")
		shards      = flag.Int("shards", 0, "se-shard/se-dist DAG region count (0 = adaptive from depth/coupling/GOMAXPROCS, clamped to DAG depth)")
		roundBatch  = flag.Int("round-batch", 0, "se-dist generations per worker RPC round (0 = 1)")
		jsonOut     = flag.Bool("json", false, "emit only a JSON array of results in the service wire schema (internal/serve)")
		server      = flag.String("server", "", "run inside a session of the mshd daemon at this URL instead of in-process")
		verbose     = flag.Bool("v", false, "print the full schedule and evaluation counts")
		gantt       = flag.Bool("gantt", false, "print a text Gantt chart of the best schedule")
		snapshot    = flag.String("snapshot", "", "write the search's resumable snapshot to this file after the budget")
		resume      = flag.String("resume", "", "resume the search snapshotted in this file (algorithm comes from the snapshot) for another budget")
		tracePath   = flag.String("trace", "", "replay a live churn trace (JSON from wlgen -trace; \"-\" = stdin) instead of a static workload")
		cold        = flag.Bool("cold", false, "with -trace: cold-restart ablation — re-open the search after each amendment instead of warm-starting")
		stepsPT     = flag.Int("steps-per-tick", 0, "with -trace: search iterations interleaved per simulation tick (0 = default)")
		tailTicks   = flag.Int("tail-ticks", 0, "with -trace: extra ticks after the last event (0 = default, negative = none)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address while the run executes (profile offline runs live); empty = off")
	)
	flag.Parse()

	if *debugAddr != "" {
		// Explicit handler mounting: pprof's DefaultServeMux side effects
		// stay unused, same as mshd's -debug-addr listener.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := serve.NewHTTPServer(*debugAddr, mux).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "mshc: debug listener:", err)
			}
		}()
	}

	if *list {
		fmt.Print(scheduler.List())
		return
	}
	if *listPresets {
		fmt.Print(presetList())
		return
	}

	if *tracePath != "" {
		algoName := strings.TrimSpace(*algo)
		algoSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "algo" {
				algoSet = true
			}
		})
		if !algoSet {
			algoName = "" // let live pick its default, se-live
		}
		if err := runTrace(*tracePath, live.Options{
			Algo:         algoName,
			Seed:         *seed,
			StepsPerTick: *stepsPT,
			TailTicks:    *tailTicks,
			Cold:         *cold,
		}, *jsonOut, *verbose); err != nil {
			fatal(err)
		}
		return
	}

	w, err := loadWorkload(*path, *figure1, *preset)
	if err != nil {
		fatal(err)
	}
	if !*jsonOut {
		fmt.Printf("workload: %s\n", w)
		fmt.Printf("lower bound (contention-free critical path): %.0f\n\n", schedule.LowerBound(w.Graph, w.System))
	}

	names := []string{strings.TrimSpace(*algo)}
	if names[0] == "all" {
		names = scheduler.Names()
	}

	nWorkers, workerURLs, err := parseWorkers(*workers)
	if err != nil {
		fatal(err)
	}

	runs := make([]serve.RunRequest, len(names))
	for i, name := range names {
		runs[i] = serve.RunRequest{
			Algorithm:  name,
			Seed:       *seed,
			Bias:       *bias,
			Y:          *yParam,
			Population: *pop,
			Workers:    nWorkers,
			Shards:     *shards,
			WorkerURLs: workerURLs,
			RoundBatch: *roundBatch,
		}
		if *budget > 0 {
			// Float milliseconds: sub-ms -budget values survive exactly.
			runs[i].TimeBudgetMS = float64(*budget) / float64(time.Millisecond)
		} else {
			runs[i].MaxIterations = *iters
		}
	}

	var results []serve.Result
	if *snapshot != "" || *resume != "" {
		if *server != "" {
			fatal(fmt.Errorf("-snapshot/-resume drive the search locally; use the /search endpoints for served sessions"))
		}
		if len(runs) != 1 {
			fatal(fmt.Errorf("-snapshot/-resume need a single algorithm, not -algo all"))
		}
	}
	if *server != "" {
		results, err = runServed(*server, w, runs)
	} else {
		results, err = runLocal(w, runs, *snapshot, *resume)
	}
	if err != nil {
		fatal(err)
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Makespan < results[j].Makespan })

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("%-10s %14s %12s\n", "algo", "makespan", "time")
	for _, r := range results {
		fmt.Printf("%-10s %14.0f %12s\n", r.Algorithm, r.Makespan, elapsed(r).Round(time.Millisecond))
	}
	if *verbose {
		fmt.Printf("\n%-10s %14s %14s %14s\n", "algo", "full-evals", "delta-evals", "genes")
		for _, r := range results {
			fmt.Printf("%-10s %14d %14d %14d\n", r.Algorithm, r.Evaluations, r.DeltaEvaluations, r.GenesEvaluated)
		}
		best, sol := bestSolution(results)
		fmt.Printf("\nbest (%s) schedule:\n", best.Algorithm)
		printSchedule(w, sol)
		fmt.Printf("\nanalysis:\n%s", schedule.Analyze(w.Graph, w.System, sol).Report())
	}
	if *gantt {
		best, sol := bestSolution(results)
		fmt.Printf("\nbest (%s) Gantt chart:\n", best.Algorithm)
		fmt.Print(schedule.Gantt(w.Graph, w.System, sol, 72))
	}
}

// runTrace replays a churn trace (internal/live): a tick loop that
// interleaves search iterations with event application, warm-starting
// the engine across amendments (or cold-restarting with -cold). With
// jsonOut the full deterministic Report is emitted — the CI live-smoke
// job gates on its final makespan and solution fields bit-exactly.
func runTrace(path string, opts live.Options, jsonOut, verbose bool) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	tr, err := live.DecodeTrace(r)
	if err != nil {
		return err
	}
	rep, err := live.Replay(context.Background(), tr, opts)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	mode := "warm"
	if rep.Cold {
		mode = "cold"
	}
	last := rep.Samples[len(rep.Samples)-1]
	fmt.Printf("trace: %s\n", rep.Trace)
	fmt.Printf("algo: %s (%s)  events: %d  tasks arrived: %d  reschedules: %d\n",
		rep.Algo, mode, len(tr.Events), rep.TasksArrived, rep.Reschedules)
	fmt.Printf("final: %d tasks on %d machines, makespan %.0f (regret %.0f) after %d iterations / %d evaluations\n",
		last.Tasks, last.Machines, rep.FinalMakespan, last.Regret, last.Iterations, last.Evaluations)
	if verbose {
		fmt.Printf("\n%6s %6s %9s %12s %14s %14s\n", "tick", "tasks", "machines", "iterations", "evaluations", "best")
		for _, s := range rep.Samples {
			fmt.Printf("%6d %6d %9d %12d %14d %14.0f\n", s.Tick, s.Tasks, s.Machines, s.Iterations, s.Evaluations, s.Best)
		}
	}
	return nil
}

// parseWorkers interprets the -workers flag: empty or an integer keeps
// the historical in-process meaning; anything else is a comma-separated
// list of mshd worker base URLs for se-dist, normalized to http:// when
// no scheme is given.
func parseWorkers(s string) (int, []string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n < 0 {
			return 0, nil, fmt.Errorf("-workers %d: want >= 0", n)
		}
		return n, nil, nil
	}
	var urls []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		urls = append(urls, part)
	}
	if len(urls) == 0 {
		return 0, nil, fmt.Errorf("-workers %q: want an integer or a comma-separated URL list", s)
	}
	return 0, urls, nil
}

// runLocal executes every run in-process: each opens its search (or, with
// resumePath, restores the snapshotted one), drives it to the request's
// budget and, with snapPath, writes the paused search's snapshot. A
// snapshotted-and-resumed run is bit-identical to an uninterrupted one.
func runLocal(w *workload.Workload, runs []serve.RunRequest, snapPath, resumePath string) ([]serve.Result, error) {
	var resume []byte
	if resumePath != "" {
		data, err := os.ReadFile(resumePath)
		if err != nil {
			return nil, err
		}
		resume = data
	}
	var results []serve.Result
	for _, req := range runs {
		var s scheduler.Search
		var err error
		if resume != nil {
			if req.Algorithm, err = scheduler.SnapshotAlgorithm(resume); err != nil {
				return nil, err
			}
			s, err = scheduler.Restore(req.Algorithm, resume, w.Graph, w.System)
		} else {
			s, err = scheduler.Open(req.Algorithm, w.Graph, w.System, req.Options()...)
		}
		if err != nil {
			return nil, err
		}
		res, err := scheduler.Drive(context.Background(), s, req.Budget())
		if err != nil {
			return nil, err
		}
		if snapPath != "" {
			data, err := s.Snapshot()
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(snapPath, data, 0o644); err != nil {
				return nil, err
			}
		}
		results = append(results, serve.NewResult(req.Algorithm, req.Seed, res, false))
	}
	return results, nil
}

// runServed executes every run inside one session of an mshd daemon: the
// workload is uploaded once, each algorithm runs against the pinned
// session, and the session is torn down at the end.
func runServed(base string, w *workload.Workload, runs []serve.RunRequest) ([]serve.Result, error) {
	ctx := context.Background()
	client := serve.NewClient(base)
	var buf bytes.Buffer
	if err := workload.Encode(&buf, w); err != nil {
		return nil, err
	}
	info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Workload: buf.Bytes()})
	if err != nil {
		return nil, err
	}
	defer client.DeleteSession(ctx, info.ID)
	var results []serve.Result
	for _, req := range runs {
		res, err := client.Run(ctx, info.ID, req)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

func bestSolution(results []serve.Result) (serve.Result, schedule.String) {
	best := results[0]
	sol, err := schedule.Parse(best.Solution)
	if err != nil {
		fatal(err)
	}
	return best, sol
}

func elapsed(r serve.Result) time.Duration {
	return time.Duration(r.ElapsedMS * float64(time.Millisecond))
}

func loadWorkload(path string, figure1 bool, preset string) (*workload.Workload, error) {
	switch {
	case figure1:
		return workload.Figure1(), nil
	case preset != "":
		return workload.Preset(preset)
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.Decode(f)
	default:
		return nil, fmt.Errorf("provide -workload FILE, -preset NAME or -figure1")
	}
}

// presetList renders the built-in presets as a table generated from the
// presets map itself, so this output — and the README table a root test
// checks against it — cannot drift from the code.
func presetList() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %9s %6s\n", "name", "tasks", "machines", "items")
	for _, name := range workload.PresetNames() {
		w, err := workload.Preset(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "%-10s %6d %9d %6d\n", name, w.Graph.NumTasks(), w.System.NumMachines(), w.Graph.NumItems())
	}
	return b.String()
}

func printSchedule(w *workload.Workload, s schedule.String) {
	e := schedule.NewEvaluator(w.Graph, w.System)
	startTimes, finishTimes := e.StartTimes(s)
	for m, order := range s.MachineOrders(w.System.NumMachines()) {
		fmt.Printf("  m%-3d:", m)
		for _, t := range order {
			fmt.Printf("  %s[%.0f→%.0f]", w.Graph.Name(t), startTimes[t], finishTimes[t])
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mshc:", err)
	os.Exit(1)
}
