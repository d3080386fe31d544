// Benchmarks regenerating every figure of the paper's evaluation section,
// plus micro-benchmarks of the hot paths and ablations of the design
// choices called out in DESIGN.md.
//
// Figure benchmarks run the experiment at a reduced but shape-preserving
// scale (experiments.QuickConfig) so `go test -bench=.` finishes in
// minutes; `cmd/figures` runs the same code at full paper scale. Custom
// metrics report the quantity the paper plots, so the benchmark output
// doubles as the reproduction record.
package repro_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/sa"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/workload"
)

func quickCfg() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Budget = 250 * time.Millisecond
	return cfg
}

// --- one benchmark per paper figure ---

// BenchmarkFig3aSelectionDecay regenerates Figure 3a: the number of
// selected subtasks per SE iteration on a large, highly connected
// workload. Reported metrics are the mean selection-set size over the
// first and last 10% of iterations; the paper's claim is early ≫ late.
func BenchmarkFig3aSelectionDecay(b *testing.B) {
	var genes uint64
	for i := 0; i < b.N; i++ {
		fig, _, err := experiments.Fig3(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		genes += fig.GenesEvaluated
		early, late := headTail(fig)
		b.ReportMetric(early, "selected-early")
		b.ReportMetric(late, "selected-late")
		reportFigure(b, fig)
	}
	reportGenesPerSec(b, genes)
}

// BenchmarkFig3bScheduleLength regenerates Figure 3b: the current schedule
// length per SE iteration of the same run.
func BenchmarkFig3bScheduleLength(b *testing.B) {
	var genes uint64
	for i := 0; i < b.N; i++ {
		_, fig, err := experiments.Fig3(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		genes += fig.GenesEvaluated
		first := fig.Series[0].Points[0].Y
		b.ReportMetric(first, "makespan-initial")
		reportFigure(b, fig)
	}
	reportGenesPerSec(b, genes)
}

// BenchmarkFig4aYLowHeterogeneity regenerates Figure 4a: the Y sweep under
// low heterogeneity. One metric per Y value (final best schedule length);
// the paper's claim is that larger Y wins.
func BenchmarkFig4aYLowHeterogeneity(b *testing.B) {
	benchmarkFig4(b, experiments.Fig4a)
}

// BenchmarkFig4bYHighHeterogeneity regenerates Figure 4b: the Y sweep
// under high heterogeneity. The paper's claim is that a middle Y wins and
// the largest Y regresses.
func BenchmarkFig4bYHighHeterogeneity(b *testing.B) {
	benchmarkFig4(b, experiments.Fig4b)
}

func benchmarkFig4(b *testing.B, gen func(experiments.Config) (experiments.Figure, error)) {
	b.Helper()
	var genes uint64
	for i := 0; i < b.N; i++ {
		fig, err := gen(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		genes += fig.GenesEvaluated
		for _, s := range fig.Series {
			b.ReportMetric(s.Last(), "final-"+metricName(s.Name))
		}
		reportFigure(b, fig)
	}
	reportGenesPerSec(b, genes)
}

// BenchmarkFig5SEvsGAHighConnectivity regenerates Figure 5: the SE-vs-GA
// wall-clock race on a high-connectivity workload. Metrics are final best
// schedule lengths; the paper's claim is SE ≤ GA on this class.
func BenchmarkFig5SEvsGAHighConnectivity(b *testing.B) {
	benchmarkRace(b, experiments.Fig5)
}

// BenchmarkFig6SEvsGACCR1 regenerates Figure 6: the race on a CCR = 1
// workload (heavily communicating subtasks). Paper claim: SE wins.
func BenchmarkFig6SEvsGACCR1(b *testing.B) {
	benchmarkRace(b, experiments.Fig6)
}

// BenchmarkFig7SEvsGALowEverything regenerates Figure 7: the race on a
// low-connectivity, low-heterogeneity, CCR = 0.1 workload. Paper claim:
// no clear winner.
func BenchmarkFig7SEvsGALowEverything(b *testing.B) {
	benchmarkRace(b, experiments.Fig7)
}

func benchmarkRace(b *testing.B, gen func(experiments.Config) (experiments.Figure, error)) {
	b.Helper()
	var genes uint64
	for i := 0; i < b.N; i++ {
		fig, err := gen(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		genes += fig.GenesEvaluated
		for _, s := range fig.Series {
			b.ReportMetric(s.Last(), "final-"+metricName(s.Name))
		}
		reportFigure(b, fig)
	}
	reportGenesPerSec(b, genes)
}

// reportFigure reports the figure's best final schedule length under the
// same "makespan" name the cmd/perf ledger uses, so `go test -bench` output
// and BENCH_<n>.json agree on units.
func reportFigure(b *testing.B, fig experiments.Figure) {
	b.Helper()
	b.ReportMetric(fig.BestMakespan, "makespan")
}

// reportGenesPerSec converts search effort accumulated over all benchmark
// iterations into the ledger's genes/s throughput unit.
func reportGenesPerSec(b *testing.B, genes uint64) {
	b.Helper()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(genes)/s, "genes/s")
	}
}

// reportNsPerGene reports wall time per evaluated gene, the per-step cost
// of the evaluation engine that genes/sweep alone cannot show: a change
// that makes each replayed gene cheaper leaves the gene count unchanged.
func reportNsPerGene(b *testing.B, genes uint64) {
	b.Helper()
	if genes > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(genes), "ns/gene")
	}
}

func headTail(fig experiments.Figure) (early, late float64) {
	pts := fig.Series[0].Points
	k := len(pts) / 10
	if k < 1 {
		k = 1
	}
	for _, p := range pts[:k] {
		early += p.Y
	}
	for _, p := range pts[len(pts)-k:] {
		late += p.Y
	}
	return early / float64(k), late / float64(k)
}

func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return string(out)
}

// --- micro-benchmarks of the hot paths ---

func benchWorkload(tasks, machines int) *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks:         tasks,
		Machines:      machines,
		Connectivity:  workload.HighConnectivity,
		Heterogeneity: workload.MediumHeterogeneity,
		CCR:           0.5,
		Seed:          1,
	})
}

// benchSchedule runs the registered algorithm name on w under budget and
// fails the benchmark on error.
func benchSchedule(b *testing.B, name string, w *workload.Workload, budget scheduler.Budget, opts ...scheduler.Option) *scheduler.Result {
	b.Helper()
	s, err := scheduler.Open(name, w.Graph, w.System, opts...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := scheduler.Drive(context.Background(), s, budget)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkEvaluatorMakespan measures the single-pass schedule-length
// evaluation (the inner loop of SE allocation and GA fitness) at the
// paper's scale: 100 tasks, 20 machines, ~400 data items.
func BenchmarkEvaluatorMakespan(b *testing.B) {
	w := benchWorkload(100, 20)
	e := schedule.NewEvaluator(w.Graph, w.System)
	s := heuristics.Random(w.Graph, w.System, 1).Solution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Makespan(s)
	}
}

// BenchmarkDeltaMoveMakespan measures one incremental candidate
// evaluation — a checkpointed suffix replay — on the same workload and
// solution as BenchmarkEvaluatorMakespan, for a like-for-like comparison
// of the two ways to score a move.
func BenchmarkDeltaMoveMakespan(b *testing.B) {
	w := benchWorkload(100, 20)
	d := schedule.NewDeltaEvaluator(w.Graph, w.System)
	s := heuristics.Random(w.Graph, w.System, 1).Solution
	d.Pin(s)
	n := w.Graph.NumTasks()
	pos := make([]int, n)
	s.Positions(pos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % n
		lo, hi := schedule.ValidRange(w.Graph, s, pos, idx)
		q := lo + (i % (hi - lo + 1))
		m := s[idx].Machine
		d.MoveMakespan(idx, q, m, schedule.NoBound, schedule.NoBound)
	}
}

// BenchmarkSEAllocationDeltaVsFull ablates the incremental evaluation
// engine on the Figure-3 workload (large, highly connected — the same
// parameters experiments.Fig3 uses at paper scale). The search is
// byte-identical under both engines; the reported metric is the genes
// evaluated per SE allocation sweep, the quantity the delta engine
// shrinks (DESIGN.md §"Incremental evaluation").
func BenchmarkSEAllocationDeltaVsFull(b *testing.B) {
	w := benchWorkload(100, 20)
	for _, tc := range []struct {
		name string
		full bool
	}{
		{"delta", false},
		{"full", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opts := []scheduler.Option{scheduler.WithSeed(1), scheduler.WithY(9)}
			if tc.full {
				opts = append(opts, scheduler.WithFullEval())
			}
			res := benchSchedule(b, "se", w, scheduler.Budget{MaxIterations: b.N}, opts...)
			b.ReportMetric(float64(res.GenesEvaluated)/float64(b.N), "genes/sweep")
			reportNsPerGene(b, res.GenesEvaluated)
			b.ReportMetric(float64(res.Evaluations)/float64(b.N), "full-evals/sweep")
			b.ReportMetric(float64(res.DeltaEvaluations)/float64(b.N), "delta-evals/sweep")
		})
	}
}

// BenchmarkSEIteration measures whole SE generations (evaluation,
// selection, allocation) at paper scale.
func BenchmarkSEIteration(b *testing.B) {
	w := benchWorkload(100, 20)
	res := benchSchedule(b, "se", w, scheduler.Budget{MaxIterations: b.N}, scheduler.WithSeed(1), scheduler.WithY(9))
	b.ReportMetric(float64(res.Evaluations)/float64(b.N), "evals/iter")
	reportNsPerGene(b, res.GenesEvaluated)
}

// BenchmarkGAGeneration measures whole GA generations at paper scale with
// Wang et al.'s population size.
func BenchmarkGAGeneration(b *testing.B) {
	w := benchWorkload(100, 20)
	benchSchedule(b, "ga", w, scheduler.Budget{MaxIterations: b.N}, scheduler.WithSeed(1), scheduler.WithPopulation(200))
}

// BenchmarkSAMove measures single simulated-annealing moves (propose +
// evaluate + accept/reject).
func BenchmarkSAMove(b *testing.B) {
	w := benchWorkload(100, 20)
	e, err := sa.NewEngine(w.Graph, w.System, sa.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for e.Moves() < b.N {
		e.Step()
	}
}

// BenchmarkHeuristics measures the constructive baselines at paper scale.
func BenchmarkHeuristics(b *testing.B) {
	w := benchWorkload(100, 20)
	b.Run("heft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heuristics.HEFT(w.Graph, w.System)
		}
	})
	b.Run("minmin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heuristics.MinMin(w.Graph, w.System)
		}
	})
	b.Run("mct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heuristics.MCT(w.Graph, w.System)
		}
	})
}

// --- ablations of DESIGN.md design choices ---

// BenchmarkAllocationWorkers ablates SE's parallel candidate evaluation:
// identical search (bit-identical results, see core tests), different
// wall-clock. Throughput is reported as iterations completed in a fixed
// 300ms budget.
func BenchmarkAllocationWorkers(b *testing.B) {
	w := benchWorkload(100, 20)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res := benchSchedule(b, "se", w, scheduler.Budget{TimeBudget: 300 * time.Millisecond},
					scheduler.WithSeed(1), scheduler.WithY(9), scheduler.WithWorkers(workers))
				total += res.Iterations
			}
			b.ReportMetric(float64(total)/float64(b.N), "iters/300ms")
		})
	}
}

// BenchmarkShardedVsSerialAllocation measures the sharding speedup README
// "Scaling" reports: serial se against se-shard at equal generation
// budgets on the 500-task xlarge preset (22 levels → 6 level-band
// regions). Metrics are wall-clock ms per run and the final makespan;
// TestShardedAllocationBeatsSerialWallClock enforces the ≥1.5× claim.
func BenchmarkShardedVsSerialAllocation(b *testing.B) {
	w, err := workload.Preset("xlarge")
	if err != nil {
		b.Fatal(err)
	}
	const iters = 25
	for _, tc := range []struct {
		name   string
		shards int // 0 = serial se
	}{
		{"serial", 0},
		{"shards-4", 4},
		{"shards-6", 6},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				budget := scheduler.Budget{MaxIterations: iters}
				var res *scheduler.Result
				if tc.shards == 0 {
					res = benchSchedule(b, "se", w, budget, scheduler.WithSeed(1), scheduler.WithY(4))
				} else {
					res = benchSchedule(b, "se-shard", w, budget, scheduler.WithSeed(1), scheduler.WithY(4),
						scheduler.WithShards(tc.shards))
				}
				b.ReportMetric(res.Makespan, "makespan")
			}
		})
	}
}

// BenchmarkSEBias ablates the selection bias B: negative bias selects more
// tasks per iteration (thorough, slow), positive bias fewer (fast). The
// metric is evaluations consumed per iteration.
func BenchmarkSEBias(b *testing.B) {
	w := benchWorkload(60, 12)
	for _, tc := range []struct {
		name string
		bias float64
	}{
		{"negative-0.2", -0.2},
		{"zero", 0},
		{"positive-0.1", 0.1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			res := benchSchedule(b, "se", w, scheduler.Budget{MaxIterations: b.N},
				scheduler.WithSeed(1), scheduler.WithBias(tc.bias), scheduler.WithY(5))
			b.ReportMetric(float64(res.Evaluations)/float64(b.N), "evals/iter")
			b.ReportMetric(res.Makespan, "makespan")
		})
	}
}

// BenchmarkSEPerturbation ablates the iterated-local-search extension
// (Options.PerturbAfter) against the paper's plain greedy SE at equal
// iteration budgets on a small instance, where plain SE parks in the first
// local optimum.
func BenchmarkSEPerturbation(b *testing.B) {
	w := benchWorkload(20, 4)
	for _, tc := range []struct {
		name string
		pa   int
	}{
		{"plain", 0},
		{"kick-25", 25},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := benchSchedule(b, "se", w, scheduler.Budget{MaxIterations: 600},
					scheduler.WithBias(-0.2), scheduler.WithSeed(1), scheduler.WithPerturbAfter(tc.pa))
				b.ReportMetric(res.Makespan, "makespan")
			}
		})
	}
}

// BenchmarkSEvsSA ablates SE's guided selection + constructive allocation
// against simulated annealing over the identical move space, at equal
// wall-clock budgets.
func BenchmarkSEvsSA(b *testing.B) {
	w := benchWorkload(60, 12)
	budget := 200 * time.Millisecond
	b.Run("se", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := benchSchedule(b, "se", w, scheduler.Budget{TimeBudget: budget}, scheduler.WithSeed(1), scheduler.WithY(5))
			b.ReportMetric(res.Makespan, "makespan")
		}
	})
	b.Run("sa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := benchSchedule(b, "sa", w, scheduler.Budget{TimeBudget: budget}, scheduler.WithSeed(1))
			b.ReportMetric(res.Makespan, "makespan")
		}
	})
}

// --- serving-layer benchmarks (internal/serve) ---

// BenchmarkServeConcurrentSessions drives the full serving stack — HTTP
// server, session manager, per-session pinned evaluators — with 8 parallel
// sessions, each issuing a run plus a burst of move queries per iteration.
// This is the batched multi-instance serving scenario of the ROADMAP: one
// process answering concurrent search sessions, with same-session requests
// serialized and distinct sessions in parallel. The reported metric is
// session-iterations per second of wall clock.
func BenchmarkServeConcurrentSessions(b *testing.B) {
	mgr := serve.NewManager(serve.Options{MaxSessions: 32})
	defer mgr.Close()
	srv := httptest.NewServer(serve.NewServer(mgr))
	defer srv.Close()
	client := serve.NewClient(srv.URL)
	ctx := context.Background()

	const sessions = 8
	ids := make([]string, sessions)
	for i := range ids {
		p := workload.Params{
			Tasks: 30, Machines: 6,
			Connectivity:  workload.HighConnectivity,
			Heterogeneity: workload.MediumHeterogeneity,
			CCR:           0.5,
			Seed:          int64(i + 1),
		}
		info, err := client.CreateSession(ctx, serve.CreateSessionRequest{Params: &p})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = info.ID
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if _, err := client.Run(ctx, ids[s], serve.RunRequest{
					Algorithm: "se", Seed: int64(i + 1), MaxIterations: 5,
				}); err != nil {
					errs <- err
					return
				}
				for q := 0; q < 8; q++ {
					if _, err := client.Move(ctx, ids[s], serve.MoveRequest{
						Index: q, To: q, Machine: q % 6,
					}); err != nil {
						errs <- err
						return
					}
				}
			}(s)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sessions*b.N)/b.Elapsed().Seconds(), "session-iters/s")
}
