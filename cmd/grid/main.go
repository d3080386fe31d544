// Command grid runs the full factorial experiment the paper's §5.3 samples
// from: every combination of connectivity × heterogeneity × CCR class,
// scheduling with any set of registered algorithms (default: the paper's
// SE-vs-GA pairing) over several seeds, and reports mean best schedule
// lengths per cell. It makes the paper's summary sentence — "SE produced
// better solutions than GA with less time, for workloads with relatively
// high connectivity, and/or high heterogeneity, and/or high CCR" —
// checkable as a table.
//
// Usage:
//
//	grid -tasks 100 -machines 20 -budget 2s -trials 3
//	grid -quick
//	grid -quick -algos se,ga,heft,tabu
//	grid -list-algos
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

type class struct {
	name  string
	value float64
}

func main() {
	var (
		tasks    = flag.Int("tasks", 100, "subtasks per workload")
		machines = flag.Int("machines", 20, "machines")
		budget   = flag.Duration("budget", 2*time.Second, "wall-clock budget per scheduler per cell")
		trials   = flag.Int("trials", 3, "seeds per cell")
		quick    = flag.Bool("quick", false, "small fast grid (40 tasks, 8 machines, 300ms, 2 trials)")
		seed     = flag.Int64("seed", 1, "base seed")
		algos    = flag.String("algos", "se,ga", "comma-separated registered algorithms (see -list-algos)")
		shards   = flag.Int("shards", 0, "se-shard DAG region count (0 = default)")
		list     = flag.Bool("list-algos", false, "list registered algorithms and exit")
	)
	flag.Parse()
	if *list {
		fmt.Print(scheduler.List())
		return
	}
	if *quick {
		*tasks, *machines, *budget, *trials = 40, 8, 300*time.Millisecond, 2
	}
	names, err := scheduler.ParseNames(*algos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grid:", err)
		os.Exit(1)
	}

	connectivities := []class{{"lowC", workload.LowConnectivity}, {"highC", workload.HighConnectivity}}
	heterogeneities := []class{{"lowH", workload.LowHeterogeneity}, {"highH", workload.HighHeterogeneity}}
	ccrs := []class{{"ccr.1", workload.LowCCR}, {"ccr1", workload.HighCCR}}

	fmt.Printf("factorial grid: %d tasks × %d machines, %v budget, %d trials per cell\n\n",
		*tasks, *machines, *budget, *trials)
	// Column width fits the longest registered name plus the " mean"
	// suffix, so headers and data stay aligned for any -algos choice.
	colWidth := 12
	for _, name := range names {
		if w := len(name) + len(" mean"); w > colWidth {
			colWidth = w
		}
	}
	fmt.Printf("%-18s", "cell")
	for _, name := range names {
		fmt.Printf(" %*s", colWidth, name+" mean")
	}
	fmt.Printf(" %s\n", "winner")

	wins := make(map[string]int)
	cells := 0
	for _, c := range connectivities {
		for _, h := range heterogeneities {
			for _, r := range ccrs {
				cell := fmt.Sprintf("%s+%s+%s", c.name, h.name, r.name)
				means, err := runCell(names, *tasks, *machines, c.value, h.value, r.value, *budget, *trials, *seed, *shards)
				if err != nil {
					fmt.Fprintln(os.Stderr, "grid:", err)
					os.Exit(1)
				}
				winner := 0
				for i := range names {
					if means[i] < means[winner] {
						winner = i
					}
				}
				wins[names[winner]]++
				cells++
				fmt.Printf("%-18s", cell)
				for _, m := range means {
					fmt.Printf(" %*.0f", colWidth, m)
				}
				fmt.Printf(" %s\n", names[winner])
			}
		}
	}
	fmt.Println()
	for _, name := range names {
		fmt.Printf("%s wins %d of %d cells. ", name, wins[name], cells)
	}
	fmt.Println()
	if len(names) == 2 && names[0] == "se" && names[1] == "ga" {
		fmt.Println("paper §5.3: SE should dominate the high-connectivity / high-heterogeneity /")
		fmt.Println("high-CCR cells; low-everything cells are expected to be close or mixed.")
	}
}

func runCell(names []string, tasks, machines int, conn, het, ccr float64, budget time.Duration, trials int, baseSeed int64, shards int) ([]float64, error) {
	run := func(name string, seed int64) (float64, error) {
		w, err := workload.Generate(workload.Params{
			Tasks:         tasks,
			Machines:      machines,
			Connectivity:  conn,
			Heterogeneity: het,
			CCR:           ccr,
			Seed:          seed,
		})
		if err != nil {
			return 0, err
		}
		s, err := scheduler.Open(name, w.Graph, w.System, experiments.TunedOptions(name, machines, seed, 0, shards)...)
		if err != nil {
			return 0, err
		}
		res, err := scheduler.Drive(context.Background(), s, scheduler.Budget{TimeBudget: budget})
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	}
	means := make([]float64, len(names))
	for i, name := range names {
		sum, _, err := runner.Trials(trials, 1, baseSeed, func(s int64) (float64, error) { return run(name, s) })
		if err != nil {
			return nil, err
		}
		means[i] = sum.Mean
	}
	return means, nil
}
