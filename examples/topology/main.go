// Topology: study how the machine interconnect changes scheduling — a
// generalization of the paper, which assumes a fully connected suite (§2).
//
// An FFT task graph (a classic communication-heavy benchmark DAG) is
// realized on four interconnects with identical machines and identical
// target CCR: fully connected, star, ring and 2D mesh. For each topology
// the example schedules with HEFT and with SE, and reports makespan,
// machine utilization, and cross-machine traffic. Sparser topologies pay
// multi-hop transfer costs, so schedulers must co-locate more.
//
//	go run ./examples/topology
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func main() {
	const (
		points   = 16 // 16-point FFT → 80 tasks
		machines = 8
		ccr      = 1.0
	)
	g, err := workload.FFT(points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FFT(%d): %d tasks, %d data items, %d machines, CCR %.1f\n\n",
		points, g.NumTasks(), g.NumItems(), machines, ccr)

	topos := []struct {
		name  string
		build func() (*platform.Topology, error)
	}{
		{"full", func() (*platform.Topology, error) { return platform.FullyConnected(machines, 1) }},
		{"star", func() (*platform.Topology, error) { return platform.Star(machines, 1) }},
		{"ring", func() (*platform.Topology, error) { return platform.Ring(machines, 1) }},
		{"mesh2x4", func() (*platform.Topology, error) { return platform.Mesh(2, 4, 1) }},
	}

	fmt.Printf("%-8s %-6s %10s %12s %8s %8s\n",
		"topology", "algo", "makespan", "utilization", "cross", "comm")
	for _, tc := range topos {
		topo, err := tc.build()
		if err != nil {
			log.Fatal(err)
		}
		w, err := workload.RealizeOn("fft", g, topo, workload.ShapeParams{
			Machines:      machines,
			Heterogeneity: 4,
			CCR:           ccr,
			Seed:          1,
		})
		if err != nil {
			log.Fatal(err)
		}

		// Both algorithms come from the scheduler registry.
		for _, algo := range []string{"heft", "se"} {
			s, err := scheduler.Open(algo, w.Graph, w.System,
				scheduler.WithSeed(1),
				scheduler.WithY(machines/2),
			)
			if err != nil {
				log.Fatal(err)
			}
			res, err := scheduler.Drive(context.Background(), s, scheduler.Budget{MaxIterations: 300})
			if err != nil {
				log.Fatal(err)
			}
			report(w, tc.name, algo, res.Best)
		}
	}
	fmt.Println("\ncross = data items crossing machines; comm = their total transfer time")
	fmt.Println("(sparser interconnects → schedulers co-locate more, utilization drops)")
}

func report(w *workload.Workload, topo, algo string, s schedule.String) {
	a := schedule.Analyze(w.Graph, w.System, s)
	fmt.Printf("%-8s %-6s %10.0f %11.0f%% %8d %8.0f\n",
		topo, algo, a.Makespan, 100*a.Utilization, a.CrossTransfers, a.CommTime)
}
