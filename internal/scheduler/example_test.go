package scheduler_test

import (
	"context"
	"fmt"

	"repro/internal/scheduler"
	"repro/internal/workload"
)

// ExampleGet is the whole library workflow in one screen: resolve an
// algorithm by registry name, configure it with functional options, and
// schedule a workload under a budget. Constructive heuristics like HEFT
// ignore the budget and run to completion, so the result is deterministic.
func ExampleGet() {
	w := workload.Figure1()
	s, err := scheduler.Get("heft", scheduler.WithSeed(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := s.Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{})
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
