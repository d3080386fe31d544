package scheduler_test

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// The incremental evaluation engine must be invisible in the results:
// for every registered scheduler, a run as built (moves scored by
// schedule.DeltaEvaluator replays) and the same run inside a
// schedule.Reference scope (every move scored by one full pass) must
// return byte-identical best strings, equal makespans and equal iteration
// counts — on multiple workload shapes, serially and with parallel
// workers. Only the evaluation-effort ledger may differ, and it must
// differ in the delta engine's favour. GA scores whole chromosomes by
// full passes either way, so its ledgers must be equal instead.

func deltaEquivalenceParams() map[string]workload.Params {
	return map[string]workload.Params{
		"high-connectivity": {
			Tasks: 30, Machines: 6, Connectivity: 3.5, Heterogeneity: 8, CCR: 0.5, Seed: 42,
		},
		"sparse-low-ccr": {
			Tasks: 25, Machines: 4, Connectivity: 1.0, Heterogeneity: 3, CCR: 0.1, Seed: 7,
		},
		"communication-bound": {
			Tasks: 20, Machines: 5, Connectivity: 2.0, Heterogeneity: 5, CCR: 2.0, Seed: 13,
		},
	}
}

func deltaEquivalenceWorkloads() map[string]*workload.Workload {
	ws := make(map[string]*workload.Workload)
	for name, p := range deltaEquivalenceParams() {
		ws[name] = workload.MustGenerate(p)
	}
	return ws
}

// referenceDrive is openDrive inside a schedule.Reference scope, which
// covers the whole run: opening, every step and the closing Best (the
// sharded reconciler builds its evaluator inside Result).
func referenceDrive(name string, w *workload.Workload, b scheduler.Budget, opts ...scheduler.Option) (res *scheduler.Result, err error) {
	schedule.Reference(func() {
		res, err = openDrive(context.Background(), name, w, b, opts...)
	})
	return res, err
}

func TestEveryRegisteredSchedulerDeltaVsFullIdentical(t *testing.T) {
	for wname, w := range deltaEquivalenceWorkloads() {
		for _, info := range scheduler.Infos() {
			t.Run(fmt.Sprintf("%s/%s", info.Name, wname), func(t *testing.T) {
				b := scheduler.Budget{}
				if info.Kind == scheduler.Metaheuristic {
					b.MaxIterations = 25
				}
				opts := []scheduler.Option{scheduler.WithSeed(11), scheduler.WithY(3)}
				dres, err := openDrive(context.Background(), info.Name, w, b, opts...)
				if err != nil {
					t.Fatalf("delta run: %v", err)
				}
				fres, err := referenceDrive(info.Name, w, b, opts...)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				assertSame(t, info.Name, dres.Best, dres.Makespan, fres.Best, fres.Makespan)
				if dres.Iterations != fres.Iterations {
					t.Errorf("iterations: delta %d != reference %d", dres.Iterations, fres.Iterations)
				}
				if fres.DeltaEvaluations != 0 {
					t.Errorf("reference run reported %d delta evaluations, want 0", fres.DeltaEvaluations)
				}
				switch {
				case info.Name == "ga":
					if dres.DeltaEvaluations != 0 || dres.GenesEvaluated != fres.GenesEvaluated {
						t.Errorf("ga ledger moved inside the reference scope: %d delta evaluations, genes %d vs %d",
							dres.DeltaEvaluations, dres.GenesEvaluated, fres.GenesEvaluated)
					}
				case info.Kind == scheduler.Metaheuristic:
					if dres.DeltaEvaluations == 0 {
						t.Errorf("delta run reported no delta evaluations")
					}
					if dres.GenesEvaluated >= fres.GenesEvaluated {
						t.Errorf("delta run evaluated %d genes, reference run %d — no saving",
							dres.GenesEvaluated, fres.GenesEvaluated)
					}
				}
			})
		}
	}
}

func TestSEDeltaVsFullIdenticalWithWorkers(t *testing.T) {
	w := equivalenceWorkload()
	b := scheduler.Budget{MaxIterations: 30}
	base := []scheduler.Option{scheduler.WithSeed(5), scheduler.WithY(4), scheduler.WithBias(-0.1)}
	want, err := openDrive(context.Background(), "se", w, b, base...)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 2; workers <= 4; workers++ {
		opts := append(append([]scheduler.Option(nil), base...), scheduler.WithWorkers(workers))
		res, err := openDrive(context.Background(), "se", w, b, opts...)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, fmt.Sprintf("se/workers=%d", workers), res.Best, res.Makespan, want.Best, want.Makespan)
		if res, err = referenceDrive("se", w, b, opts...); err != nil {
			t.Fatal(err)
		}
		assertSame(t, fmt.Sprintf("se/workers=%d/reference", workers), res.Best, res.Makespan, want.Best, want.Makespan)
	}
}

func TestGADeltaVsFullIdenticalWithWorkers(t *testing.T) {
	w := equivalenceWorkload()
	b := scheduler.Budget{MaxIterations: 15}
	base := []scheduler.Option{scheduler.WithSeed(5), scheduler.WithPopulation(40)}
	want, err := openDrive(context.Background(), "ga", w, b, base...)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		opts := append(append([]scheduler.Option(nil), base...), scheduler.WithWorkers(workers))
		res, err := openDrive(context.Background(), "ga", w, b, opts...)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, fmt.Sprintf("ga/workers=%d", workers), res.Best, res.Makespan, want.Best, want.Makespan)
		if res, err = referenceDrive("ga", w, b, opts...); err != nil {
			t.Fatal(err)
		}
		assertSame(t, fmt.Sprintf("ga/workers=%d/reference", workers), res.Best, res.Makespan, want.Best, want.Makespan)
	}
}

// referenceFuzzAlgos are the engines whose moves go through
// schedule.DeltaEvaluator, each passing its own bounds: SE's serial scan
// and pool chunks, the sharded regions and reconciler, SA's unbounded
// Metropolis proposals and tabu's aspiration bound.
var referenceFuzzAlgos = []string{"se", "se-ils", "se-shard", "sa", "tabu"}

// FuzzSearchMatchesReference drives one search of a small generated
// workload as built and again inside a schedule.Reference scope, and
// requires an identical best string, makespan and iteration count.
// FuzzDeltaScan checks the evaluator alone against full passes; this
// target checks the bounds each engine hands it. se-shard runs with 3
// requested regions (clamped to the DAG depth), so reconciliation runs.
func FuzzSearchMatchesReference(f *testing.F) {
	params := deltaEquivalenceParams()
	i := 0
	for _, name := range slices.Sorted(maps.Keys(params)) {
		p := params[name]
		for algo := range referenceFuzzAlgos {
			f.Add(uint8(p.Tasks-1), uint8(p.Machines-1), uint8(p.Connectivity*8), uint8(p.CCR*10),
				uint8(p.Heterogeneity-1), p.Seed, uint8(algo), int64(11), uint8(3), uint8(i%4), uint8(7))
			i++
		}
	}
	f.Fuzz(func(t *testing.T, tasks, machines, conn, ccr, hetero uint8, wseed int64, algo uint8, seed int64, y, workers, iters uint8) {
		p := workload.Params{
			Tasks:         1 + int(tasks%40),
			Machines:      1 + int(machines%8),
			Connectivity:  float64(conn) / 8,
			CCR:           float64(ccr) / 10,
			Heterogeneity: float64(1 + hetero%16),
			Seed:          wseed,
		}
		w, err := workload.Generate(p)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", p, err)
		}
		name := referenceFuzzAlgos[int(algo)%len(referenceFuzzAlgos)]
		b := scheduler.Budget{MaxIterations: 1 + int(iters%20)}
		opts := []scheduler.Option{
			scheduler.WithSeed(seed),
			scheduler.WithY(int(y) % (p.Machines + 1)),
			scheduler.WithWorkers(1 + int(workers%4)),
			scheduler.WithShards(3),
		}
		got, err := openDrive(context.Background(), name, w, b, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referenceDrive(name, w, b, opts...)
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		assertSame(t, name, got.Best, got.Makespan, want.Best, want.Makespan)
		if got.Iterations != want.Iterations {
			t.Fatalf("%s: iterations %d, reference %d", name, got.Iterations, want.Iterations)
		}
	})
}
