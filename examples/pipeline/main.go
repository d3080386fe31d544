// Pipeline: schedule a realistic signal-processing application — the kind
// of workload the paper's introduction motivates for heterogeneous
// computing — across a mixed suite of machines, and compare every
// scheduler in the repository on it.
//
// The application ingests four sensor streams; each stream runs an FFT,
// then a matched filter; a fusion step combines the streams, a detector
// and a tracker run in parallel on the fused data, and a reporter joins
// their outputs. Machine 0 is a vector unit (fast FFTs), machine 1 a
// general CPU, machine 2 a small accelerator that excels at the detector
// kernels — exactly the "each subtask is well suited to a single machine
// architecture" setting of the paper's §1.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/taskgraph"
)

func main() {
	const streams = 4
	b := taskgraph.NewBuilder(3*streams + 4)

	// Per-stream chains: ingest → fft → filter.
	var ingest, fft, filter [streams]taskgraph.TaskID
	for i := 0; i < streams; i++ {
		ingest[i] = b.AddTask(fmt.Sprintf("ingest%d", i))
	}
	for i := 0; i < streams; i++ {
		fft[i] = b.AddTask(fmt.Sprintf("fft%d", i))
	}
	for i := 0; i < streams; i++ {
		filter[i] = b.AddTask(fmt.Sprintf("filter%d", i))
	}
	fuse := b.AddTask("fuse")
	detect := b.AddTask("detect")
	track := b.AddTask("track")
	report := b.AddTask("report")

	for i := 0; i < streams; i++ {
		b.AddItem(ingest[i], fft[i], 800) // raw samples
		b.AddItem(fft[i], filter[i], 400) // spectra
		b.AddItem(filter[i], fuse, 200)   // filtered features
	}
	b.AddItem(fuse, detect, 300)
	b.AddItem(fuse, track, 300)
	b.AddItem(detect, report, 50)
	b.AddItem(track, report, 50)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Execution times (rows: vector unit, CPU, accelerator). The vector
	// unit is ~4× faster on FFTs; the accelerator ~3× faster on
	// detect/track kernels; ingest and report are I/O-ish and fastest on
	// the CPU.
	n := g.NumTasks()
	exec := make([][]float64, 3)
	for m := range exec {
		exec[m] = make([]float64, n)
	}
	setCosts := func(t taskgraph.TaskID, vector, cpu, accel float64) {
		exec[0][t], exec[1][t], exec[2][t] = vector, cpu, accel
	}
	for i := 0; i < streams; i++ {
		setCosts(ingest[i], 250, 120, 300)
		setCosts(fft[i], 100, 420, 380)
		setCosts(filter[i], 160, 300, 200)
	}
	setCosts(fuse, 220, 180, 240)
	setCosts(detect, 400, 380, 130)
	setCosts(track, 420, 400, 140)
	setCosts(report, 150, 60, 180)

	// Transfer times: item size divided by per-link bandwidth. The
	// accelerator hangs off a slower bus.
	bandwidth := map[[2]int]float64{
		{0, 1}: 10, // vector ↔ cpu: fast interconnect
		{0, 2}: 4,  // vector ↔ accelerator
		{1, 2}: 4,  // cpu ↔ accelerator
	}
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	transfer := make([][]float64, len(pairs))
	for pi, pair := range pairs {
		row := make([]float64, g.NumItems())
		for d, it := range g.Items() {
			row[d] = it.Size / bandwidth[pair]
		}
		transfer[pi] = row
	}

	sys, err := platform.New(n, g.NumItems(), exec, transfer)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pipeline: %d tasks, %d data items, 3 machines (vector, cpu, accelerator)\n", n, g.NumItems())
	fmt.Printf("lower bound: %.0f\n\n", schedule.LowerBound(g, sys))
	fmt.Printf("%-10s %10s\n", "scheduler", "makespan")

	// Every registered scheduler gets the same budget; small problem, so a
	// thorough SE search (negative bias, §4.4) via per-algorithm options.
	type row struct {
		name     string
		makespan float64
	}
	var (
		rows   []row
		seBest schedule.String
	)
	for _, name := range scheduler.Names() {
		opts := []scheduler.Option{scheduler.WithSeed(1)}
		if name == "se" || name == "se-ils" {
			opts = append(opts, scheduler.WithBias(-0.2))
		}
		s, err := scheduler.Open(name, g, sys, opts...)
		if err != nil {
			log.Fatal(err)
		}
		res, err := scheduler.Drive(context.Background(), s, scheduler.Budget{MaxIterations: 400})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{name, res.Makespan})
		if name == "se" {
			seBest = res.Best
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].makespan < rows[j].makespan })
	for _, r := range rows {
		fmt.Printf("%-10s %10.0f\n", r.name, r.makespan)
	}

	// Where did SE put things?
	eval := schedule.NewEvaluator(g, sys)
	start, finish := eval.StartTimes(seBest)
	names := []string{"vector", "cpu", "accel"}
	fmt.Println("\nSE schedule:")
	for m, order := range seBest.MachineOrders(3) {
		fmt.Printf("  %-7s:", names[m])
		for _, t := range order {
			fmt.Printf(" %s[%.0f→%.0f]", g.Name(t), start[t], finish[t])
		}
		fmt.Println()
	}
}
