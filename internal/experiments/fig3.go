package experiments

import (
	"context"
	"fmt"

	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig3 reproduces Figures 3a and 3b (§5.1, effectiveness of SE): one SE run
// on a large, highly connected workload, logging per iteration the number
// of selected subtasks (3a) and the current schedule length (3b).
//
// Paper claim: initially many individuals are selected for relocation; as
// more become optimally placed the count decays, while the schedule length
// of the current solution falls — SE is effective at placing tasks in
// their best-matching segments.
func Fig3(cfg Config) (fig3a, fig3b Figure, err error) {
	w := highConnectivityWorkload(cfg)
	var selected, current stats.Series
	selected.Name = "selected subtasks"
	current.Name = "current schedule length"
	// Y = 0, all machines: the figure is about selection dynamics.
	res, err := traceSE(cfg, w, 0, func(p scheduler.Progress) {
		selected.Add(float64(p.Iteration), float64(p.Selected))
		current.Add(float64(p.Iteration), p.Current)
	})
	if err != nil {
		return Figure{}, Figure{}, err
	}

	earlySel := headMean(selected, 0.1)
	lateSel := tailMean(selected, 0.1)
	earlyMs := headMean(current, 0.1)
	lateMs := tailMean(current, 0.1)

	fig3a = Figure{
		ID:             "3a",
		GenesEvaluated: res.GenesEvaluated,
		BestMakespan:   res.Makespan,
		Title:          "Fig 3a — number of selected subtasks per SE iteration (large size, high connectivity)",
		XLabel:         "iteration",
		YLabel:         "selected subtasks",
		Series:         []stats.Series{selected},
		Notes: []string{
			fmt.Sprintf("workload: %s", w),
			fmt.Sprintf("mean selected, first 10%% of iterations: %.1f", earlySel),
			fmt.Sprintf("mean selected, last 10%% of iterations: %.1f", lateSel),
			fmt.Sprintf("paper claim (count decays as tasks settle): %v", lateSel < earlySel),
		},
	}
	fig3b = Figure{
		ID:             "3b",
		GenesEvaluated: res.GenesEvaluated,
		BestMakespan:   res.Makespan,
		Title:          "Fig 3b — schedule length of the current solution per SE iteration",
		XLabel:         "iteration",
		YLabel:         "schedule length",
		Series:         []stats.Series{current},
		Notes: []string{
			fmt.Sprintf("initial schedule length ≈ %.0f, final best %.0f", current.Points[0].Y, res.Makespan),
			fmt.Sprintf("mean schedule length, first 10%%: %.0f; last 10%%: %.0f", earlyMs, lateMs),
			fmt.Sprintf("paper claim (schedule length decreases): %v", lateMs < earlyMs),
		},
	}
	return fig3a, fig3b, nil
}

// traceSE runs SE at bias 0 with candidate-machine count y for
// cfg.Iterations generations, handing every generation's observation to
// observe — the per-iteration series Figures 3 and 4 plot.
func traceSE(cfg Config, w *workload.Workload, y int, observe func(scheduler.Progress)) (*scheduler.Result, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("experiments: Iterations = %d, want > 0", cfg.Iterations)
	}
	se, err := scheduler.Open("se", w.Graph, w.System,
		scheduler.WithBias(0),
		scheduler.WithY(y),
		scheduler.WithSeed(cfg.Seed),
		scheduler.WithWorkers(cfg.Workers),
	)
	if err != nil {
		return nil, err
	}
	return scheduler.Drive(context.Background(), se, scheduler.Budget{
		MaxIterations: cfg.Iterations,
		OnProgress:    func(p scheduler.Progress) bool { observe(p); return true },
	})
}

// headMean averages the first frac of a series' points.
func headMean(s stats.Series, frac float64) float64 {
	n := len(s.Points)
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	ys := make([]float64, 0, k)
	for _, p := range s.Points[:k] {
		ys = append(ys, p.Y)
	}
	return stats.Mean(ys)
}

// tailMean averages the last frac of a series' points.
func tailMean(s stats.Series, frac float64) float64 {
	n := len(s.Points)
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	ys := make([]float64, 0, k)
	for _, p := range s.Points[n-k:] {
		ys = append(ys, p.Y)
	}
	return stats.Mean(ys)
}
