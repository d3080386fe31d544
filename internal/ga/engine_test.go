package ga

// In-package tests for engine internals the black-box suite cannot reach.

import (
	"testing"

	"repro/internal/workload"
)

func TestEvaluateSmallPopulationSkipsWorkerFanout(t *testing.T) {
	// A population smaller than 2× the worker count must take the serial
	// path and still produce correct costs.
	w := workload.MustGenerate(workload.Params{
		Tasks: 10, Machines: 3, Connectivity: 2, Heterogeneity: 4, CCR: 0.5, Seed: 1,
	})
	e, err := NewEngine(w.Graph, w.System, Options{
		Seed: 1, PopulationSize: 4, Workers: 8,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	genBest := e.evaluate()
	if genBest == nil || genBest.cost <= 0 {
		t.Fatalf("evaluate returned best %+v", genBest)
	}
	for i, c := range e.pop {
		if c.cost <= 0 {
			t.Errorf("chromosome %d cost %v not evaluated", i, c.cost)
		}
		if c.cost < genBest.cost {
			t.Errorf("best %v not minimal (chromosome %d has %v)", genBest.cost, i, c.cost)
		}
	}
}

func TestEvaluateParallelMatchesSerialCosts(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 20, Machines: 4, Connectivity: 2, Heterogeneity: 4, CCR: 0.5, Seed: 2,
	})
	mk := func(workers int) []float64 {
		e, err := NewEngine(w.Graph, w.System, Options{
			Seed: 7, PopulationSize: 30, Workers: workers,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		e.evaluate()
		out := make([]float64, len(e.pop))
		for i, c := range e.pop {
			out[i] = c.cost
		}
		return out
	}
	serial, parallel := mk(1), mk(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cost[%d]: serial %v != parallel %v", i, serial[i], parallel[i])
		}
	}
}

func TestWorkersBeyondHalfThePopulationAreNotBuilt(t *testing.T) {
	// evaluate fans out only with two chromosomes per worker, so more
	// workers than half the population evaluate serially; only that many
	// evaluators are built, and a restore of a snapshot naming more stays
	// cheap.
	w := workload.MustGenerate(workload.Params{
		Tasks: 10, Machines: 3, Connectivity: 2, Heterogeneity: 4, CCR: 0.5, Seed: 1,
	})
	e, err := NewEngine(w.Graph, w.System, Options{Seed: 1, PopulationSize: 10, Workers: 10_000})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if len(e.evals) != 6 {
		t.Fatalf("built %d worker evaluators, want 6", len(e.evals))
	}
	serial, err := NewEngine(w.Graph, w.System, Options{Seed: 1, PopulationSize: 10})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := 0; i < 5; i++ {
		e.Step()
		serial.Step()
	}
	got, want := e.Result(), serial.Result()
	if got.Makespan != want.Makespan || got.Evaluations != want.Evaluations || got.GenesEvaluated != want.GenesEvaluated {
		t.Errorf("oversized worker set: makespan %v, %d evaluations, %d genes; serial %v, %d, %d",
			got.Makespan, got.Evaluations, got.GenesEvaluated, want.Makespan, want.Evaluations, want.GenesEvaluated)
	}
}
