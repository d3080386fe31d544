// Quickstart: schedule the paper's worked example (Figure 1) with
// simulated evolution.
//
// It walks the full public API surface: building a DAG with data items,
// describing the heterogeneous machine suite (the E and Tr matrices),
// evaluating an encoding string, and running the SE scheduler.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/taskgraph"
)

func main() {
	// 1. The application: 7 coarse-grained subtasks, 6 data items
	//    (the DAG of the paper's Figure 1a).
	b := taskgraph.NewBuilder(7)
	b.AddTasks(7)
	b.AddItem(0, 1, 150) // d0: s0 → s1
	b.AddItem(0, 2, 200) // d1: s0 → s2
	b.AddItem(1, 3, 173) // d2: s1 → s3
	b.AddItem(1, 4, 235) // d3: s1 → s4
	b.AddItem(2, 5, 180) // d4: s2 → s5
	b.AddItem(2, 6, 160) // d5: s2 → s6
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 2. The HC system: two machines with an execution-time matrix E
	//    (rows = machines, columns = subtasks) and a transfer-time matrix
	//    Tr (rows = machine pairs, columns = data items).
	sys, err := platform.New(7, 6,
		[][]float64{
			{400, 600, 900, 700, 900, 500, 600}, // m0
			{700, 800, 600, 800, 600, 400, 500}, // m1
		},
		[][]float64{
			{150, 200, 173, 235, 180, 160}, // pair (m0, m1)
		})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Evaluate the solution the paper shows in Figure 2:
	//    m0: s0, s3, s4 and m1: s1, s2, s5, s6.
	paperString := schedule.String{
		{Task: 0, Machine: 0}, {Task: 1, Machine: 1}, {Task: 2, Machine: 1},
		{Task: 5, Machine: 1}, {Task: 6, Machine: 1}, {Task: 3, Machine: 0},
		{Task: 4, Machine: 0},
	}
	eval := schedule.NewEvaluator(g, sys)
	fmt.Printf("paper's Figure-2 string: %s\n", paperString.Format())
	fmt.Printf("its schedule length:     %.0f (the paper's C4)\n\n", eval.Makespan(paperString))

	// 4. Run simulated evolution. Small problem, so a thorough search:
	//    negative selection bias (§4.4) and all machines allowed (Y = 0).
	search, err := scheduler.Open("se", g, sys,
		scheduler.WithBias(-0.2), scheduler.WithY(0), scheduler.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	res, err := scheduler.Drive(context.Background(), search, scheduler.Budget{MaxIterations: 500})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SE best string:          %s\n", res.Best.Format())
	fmt.Printf("SE schedule length:      %.0f after %d iterations (%v)\n\n",
		res.Makespan, res.Iterations, res.Elapsed.Round(1e6))

	// 5. Show the resulting per-machine schedule.
	start, finish := eval.StartTimes(res.Best)
	for m, order := range res.Best.MachineOrders(sys.NumMachines()) {
		fmt.Printf("m%d:", m)
		for _, t := range order {
			fmt.Printf("  %s[%.0f→%.0f]", g.Name(t), start[t], finish[t])
		}
		fmt.Println()
	}
}
