// Sweep: reproduce the paper's §5.2 study of the Y parameter in miniature.
//
// Y limits how many best-matching machines a subtask may be assigned to
// during SE allocation. The paper finds that with LOW machine
// heterogeneity a larger Y monotonically improves solutions, while with
// HIGH heterogeneity quality peaks at a middle Y. This example runs the
// sweep over several seeds, prints a table of mean final schedule lengths,
// and reports the measured runtime growth with Y.
//
//	go run ./examples/sweep
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"repro/internal/runner"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func main() {
	const (
		tasks    = 60
		machines = 12
		iters    = 200
		trials   = 5
	)
	yValues := []int{2, 3, 5, 8, 12}

	fmt.Printf("SE on %d tasks × %d machines, %d iterations, %d seeds per cell\n\n",
		tasks, machines, iters, trials)

	for _, het := range []struct {
		name  string
		value float64
	}{
		{"low heterogeneity", workload.LowHeterogeneity},
		{"high heterogeneity", workload.HighHeterogeneity},
	} {
		w := workload.MustGenerate(workload.Params{
			Tasks:         tasks,
			Machines:      machines,
			Connectivity:  2.5,
			Heterogeneity: het.value,
			CCR:           0.5,
			Seed:          7,
		})
		fmt.Printf("%s (%s)\n", het.name, w.Name)
		fmt.Printf("  %4s %16s %12s\n", "Y", "mean makespan", "mean time")

		bestY, bestMean := 0, 0.0
		for _, y := range yValues {
			var totalNanos atomic.Int64 // trials run concurrently
			sum, _, err := runner.Trials(trials, 2, 1, func(seed int64) (float64, error) {
				s, err := scheduler.Open("se", w.Graph, w.System, scheduler.WithY(y), scheduler.WithSeed(seed))
				if err != nil {
					return 0, err
				}
				res, err := scheduler.Drive(context.Background(), s, scheduler.Budget{MaxIterations: iters})
				if err != nil {
					return 0, err
				}
				totalNanos.Add(int64(res.Elapsed))
				return res.Makespan, nil
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %4d %16.0f %12v\n", y, sum.Mean, (time.Duration(totalNanos.Load()) / trials).Round(time.Millisecond))
			if bestY == 0 || sum.Mean < bestMean {
				bestY, bestMean = y, sum.Mean
			}
		}
		fmt.Printf("  best Y: %d (paper §5.2: largest wins under low heterogeneity,\n", bestY)
		fmt.Printf("          a middle value wins under high heterogeneity)\n\n")
	}
}
