// Package runner is the experiment harness: it races schedulers against
// each other under equal wall-clock budgets (the setting of the paper's
// Figures 5–7), collects best-so-far convergence traces, and runs batches
// of independent seeded trials in parallel.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/taskgraph"
)

// Contender is one scheduler entered into a race. Run must respect the
// budget and the context, call record(elapsed, bestSoFar) as the run
// progresses, and return the final best makespan.
type Contender struct {
	Name string
	Run  func(ctx context.Context, budget time.Duration, record func(time.Duration, float64)) (float64, error)
	// Genes, when non-nil, reports the genes the contender's completed Run
	// evaluated, so harnesses can report race effort in the same genes/s
	// units the cmd/perf ledger uses. Hand-rolled contenders may leave it
	// nil.
	Genes func() uint64
}

// Entry adapts any registered algorithm to a race Contender: the
// contender Opens a Search, drives it with scheduler.Drive under the
// race's wall-clock budget (and the context), and samples each
// iteration's best-so-far into its series. This is the single adapter for
// every registry name — metaheuristics stream their convergence,
// constructive heuristics contribute their one solution.
func Entry(display, algorithm string, g *taskgraph.Graph, sys *platform.System, opts ...scheduler.Option) Contender {
	var genes uint64
	return Contender{
		Name: display,
		Run: func(ctx context.Context, budget time.Duration, record func(time.Duration, float64)) (float64, error) {
			s, err := scheduler.Open(algorithm, g, sys, opts...)
			if err != nil {
				return 0, err
			}
			res, err := scheduler.Drive(ctx, s, scheduler.Budget{
				TimeBudget: budget,
				OnProgress: func(p scheduler.Progress) bool {
					record(p.Elapsed, p.Best)
					return true
				},
			})
			if err != nil {
				return 0, err
			}
			genes = res.GenesEvaluated
			record(res.Elapsed, res.Makespan)
			return res.Makespan, nil
		},
		Genes: func() uint64 { return genes },
	}
}

// Race runs every contender sequentially under the same wall-clock budget
// and returns one best-so-far Series per contender (x = seconds, y = best
// makespan). Contenders run sequentially — not concurrently — so that each
// gets the whole machine, as in the paper's timed comparisons. Cancelling
// ctx aborts the race between (and, through Entry, within) contenders —
// long races started by a server or a session can be torn down cleanly.
func Race(ctx context.Context, budget time.Duration, contenders []Contender) ([]stats.Series, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("runner: race budget %v, want > 0", budget)
	}
	out := make([]stats.Series, len(contenders))
	for i, c := range contenders {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("runner: race cancelled before contender %s: %w", c.Name, err)
		}
		s := stats.Series{Name: c.Name}
		final, err := c.Run(ctx, budget, func(elapsed time.Duration, best float64) {
			// Record only improvements (plus the first sample) to keep
			// traces compact; the series is a step function anyway.
			if n := len(s.Points); n == 0 || best < s.Points[n-1].Y {
				s.Add(elapsed.Seconds(), best)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("runner: contender %s: %w", c.Name, err)
		}
		if n := len(s.Points); n == 0 || final < s.Points[n-1].Y {
			s.Add(budget.Seconds(), final)
		}
		out[i] = s
	}
	return out, nil
}

// Trials runs fn for n different seeds (baseSeed, baseSeed+1, …) across
// min(parallel, GOMAXPROCS) worker goroutines and summarizes the returned
// makespans. fn must be safe for concurrent invocation with distinct seeds.
func Trials(n, parallel int, baseSeed int64, fn func(seed int64) (float64, error)) (stats.Summary, []float64, error) {
	if n <= 0 {
		return stats.Summary{}, nil, fmt.Errorf("runner: Trials n = %d, want > 0", n)
	}
	if parallel <= 0 {
		parallel = 1
	}
	if max := runtime.GOMAXPROCS(0); parallel > max {
		parallel = max
	}
	finals := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallel)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			finals[i], errs[i] = fn(baseSeed + int64(i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stats.Summary{}, nil, err
		}
	}
	return stats.Summarize(finals), finals, nil
}
