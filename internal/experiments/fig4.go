package experiments

import (
	"fmt"
	"math"

	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig4a reproduces Figure 4a (§5.2): the effect of the Y parameter on a
// large workload of LOW heterogeneity. Paper claim: as Y increases
// (5 → 9 → 12 at 20 machines) both the quality of the solution and the
// rate of reaching good solutions improve.
func Fig4a(cfg Config) (Figure, error) {
	return fig4(cfg, "4a", workload.LowHeterogeneity, "low")
}

// Fig4b reproduces Figure 4b (§5.2): the same sweep on a HIGH-heterogeneity
// workload. Paper claim: the best result is for the middle Y (9 at 20
// machines); increasing Y beyond it made solutions worse during the first
// ~1000 iterations, because with large Y many low-quality combinations
// must be visited before good ones.
func Fig4b(cfg Config) (Figure, error) {
	return fig4(cfg, "4b", workload.HighHeterogeneity, "high")
}

// yValues scales the paper's Y choices (5, 9, 12 at 20 machines) to the
// configured machine count, deduplicating after rounding.
func yValues(machines int) []int {
	fracs := []float64{5.0 / 20, 9.0 / 20, 12.0 / 20}
	var ys []int
	for _, f := range fracs {
		y := int(math.Round(f * float64(machines)))
		if y < 1 {
			y = 1
		}
		if y > machines {
			y = machines
		}
		if len(ys) == 0 || ys[len(ys)-1] != y {
			ys = append(ys, y)
		}
	}
	return ys
}

func fig4(cfg Config, id string, het float64, hetName string) (Figure, error) {
	w := heterogeneityWorkload(cfg, het)
	ys := yValues(cfg.Machines)

	fig := Figure{
		ID:     id,
		Title:  fmt.Sprintf("Fig %s — effect of Y for %s heterogeneity (large size)", id, hetName),
		XLabel: "iteration",
		YLabel: "schedule length (best so far)",
		Notes:  []string{fmt.Sprintf("workload: %s", w)},
	}
	finals := make([]float64, len(ys))
	for i, y := range ys {
		s := stats.Series{Name: fmt.Sprintf("Y = %d", y)}
		// Same seed for every Y: identical initial solution per Y.
		res, err := traceSE(cfg, w, y, func(p scheduler.Progress) {
			s.Add(float64(p.Iteration), p.Best)
		})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, s)
		finals[i] = res.Makespan
		fig.GenesEvaluated += res.GenesEvaluated
		fig.Notes = append(fig.Notes, fmt.Sprintf("Y = %-3d final best schedule length: %.0f", y, res.Makespan))
	}

	bestIdx := 0
	for i := range finals {
		if finals[i] < finals[bestIdx] {
			bestIdx = i
		}
	}
	fig.BestMakespan = finals[bestIdx]
	switch id {
	case "4a":
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"paper claim (low het: largest Y wins): best Y on this run = %d (largest = %d) → %v",
			ys[bestIdx], ys[len(ys)-1], bestIdx == len(ys)-1))
	case "4b":
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"paper claim (high het: middle Y wins, largest Y not best): best Y on this run = %d (largest = %d) → largest-not-best: %v",
			ys[bestIdx], ys[len(ys)-1], bestIdx != len(ys)-1))
	}
	return fig, nil
}
