package scheduler_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/workload"
)

// The incremental evaluation engine must be invisible in the results:
// for every registered scheduler, a run with the delta engine (the
// default) and a run built WithFullEval must return byte-identical best
// strings, equal makespans and equal iteration counts — on multiple
// workload shapes, serially and with parallel workers. Only the
// evaluation-effort ledger may differ, and it must differ in the delta
// engine's favour.

func deltaEquivalenceWorkloads() map[string]*workload.Workload {
	return map[string]*workload.Workload{
		"high-connectivity": workload.MustGenerate(workload.Params{
			Tasks: 30, Machines: 6, Connectivity: 3.5, Heterogeneity: 8, CCR: 0.5, Seed: 42,
		}),
		"sparse-low-ccr": workload.MustGenerate(workload.Params{
			Tasks: 25, Machines: 4, Connectivity: 1.0, Heterogeneity: 3, CCR: 0.1, Seed: 7,
		}),
		"communication-bound": workload.MustGenerate(workload.Params{
			Tasks: 20, Machines: 5, Connectivity: 2.0, Heterogeneity: 5, CCR: 2.0, Seed: 13,
		}),
	}
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
				fres, err := openDrive(context.Background(), info.Name, w, b, append(opts, scheduler.WithFullEval())...)
				if err != nil {
					t.Fatalf("full run: %v", err)
				}
				assertSame(t, info.Name, dres.Best, dres.Makespan, fres.Best, fres.Makespan)
				if dres.Iterations != fres.Iterations {
					t.Errorf("iterations: delta %d != full %d", dres.Iterations, fres.Iterations)
				}
				if fres.DeltaEvaluations != 0 {
					t.Errorf("full run reported %d delta evaluations, want 0", fres.DeltaEvaluations)
				}
				if info.Kind == scheduler.Metaheuristic {
					if dres.DeltaEvaluations == 0 {
						t.Errorf("delta run reported no delta evaluations")
					}
					if dres.GenesEvaluated >= fres.GenesEvaluated {
						t.Errorf("delta run evaluated %d genes, full run %d — no saving",
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
		for _, full := range []bool{false, true} {
			opts := append(append([]scheduler.Option(nil), base...), scheduler.WithWorkers(workers))
			if full {
				opts = append(opts, scheduler.WithFullEval())
			}
			res, err := openDrive(context.Background(), "se", w, b, opts...)
			if err != nil {
				t.Fatal(err)
			}
			assertSame(t, fmt.Sprintf("se/workers=%d/full=%v", workers, full),
				res.Best, res.Makespan, want.Best, want.Makespan)
		}
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
		for _, full := range []bool{false, true} {
			opts := append(append([]scheduler.Option(nil), base...), scheduler.WithWorkers(workers))
			if full {
				opts = append(opts, scheduler.WithFullEval())
			}
			res, err := openDrive(context.Background(), "ga", w, b, opts...)
			if err != nil {
				t.Fatal(err)
			}
			assertSame(t, fmt.Sprintf("ga/workers=%d/full=%v", workers, full),
				res.Best, res.Makespan, want.Best, want.Makespan)
		}
	}
}
