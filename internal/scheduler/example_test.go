package scheduler_test

import (
	"context"
	"fmt"

	"repro/internal/scheduler"
	"repro/internal/workload"
)

// ExampleOpen is the whole library workflow in one screen: open an
// algorithm's search by registry name on a workload, configure it with
// functional options, and drive it under a budget. Constructive
// heuristics like HEFT ignore the budget and run to completion, so the
// result is deterministic.
func ExampleOpen() {
	w := workload.Figure1()
	s, err := scheduler.Open("heft", w.Graph, w.System, scheduler.WithSeed(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := scheduler.Drive(context.Background(), s, scheduler.Budget{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s makespan on %s: %.0f\n", s.Name(), w.Name, res.Makespan)
	// Output:
	// heft makespan on paper-figure1: 2300
}

// ExampleDrive opens a resumable simulated-evolution search on the paper's
// Figure-1 worked example and drives it through the shared budget loop,
// printing the best schedule length found.
func ExampleDrive() {
	w := workload.Figure1()
	s, err := scheduler.Open("se", w.Graph, w.System,
		scheduler.WithBias(-0.2), // small problem: thorough search (§4.4)
		scheduler.WithSeed(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := scheduler.Drive(context.Background(), s, scheduler.Budget{MaxIterations: 200})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("schedule length %.0f\n", res.Makespan)
	// Output:
	// schedule length 2300
}
