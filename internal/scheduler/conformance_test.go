package scheduler_test

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func conformanceWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 24, Machines: 5, Connectivity: 2.5, Heterogeneity: 6, CCR: 0.5, Seed: 11,
	})
}

// TestConformance runs every registered scheduler through the contract the
// interface promises: a valid best string whose makespan matches the
// shared evaluator and respects the lower bound, determinism under a fixed
// seed, iteration/time budgets respected, OnProgress stopping the run, and
// context cancellation surfacing ctx.Err(). Schedule is a Budget loop
// over the resumable Search API (one Budget iteration = one Search.Step),
// so this suite is also the conformance bar for every engine behind Open;
// the snapshot/restore half of that contract lives in resume_test.go.
func TestConformance(t *testing.T) {
	w := conformanceWorkload()
	lb := schedule.LowerBound(w.Graph, w.System)
	for _, name := range scheduler.Names() {
		t.Run(name, func(t *testing.T) {
			info, ok := scheduler.Describe(name)
			if !ok {
				t.Fatalf("registered name %q has no Info", name)
			}

			t.Run("result-sanity", func(t *testing.T) {
				s := scheduler.MustGet(name, scheduler.WithSeed(1))
				res, err := s.Schedule(context.Background(), w.Graph, w.System,
					scheduler.Budget{MaxIterations: 10})
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
					t.Fatalf("Best is not a valid solution: %v", err)
				}
				got := schedule.NewEvaluator(w.Graph, w.System).Makespan(res.Best)
				if math.Abs(got-res.Makespan) > 1e-9 {
					t.Errorf("Makespan = %v but re-evaluating Best gives %v", res.Makespan, got)
				}
				if res.Makespan < lb {
					t.Errorf("Makespan %v below the contention-free lower bound %v", res.Makespan, lb)
				}
				if res.Iterations <= 0 {
					t.Errorf("Iterations = %d, want > 0", res.Iterations)
				}
				if res.Evaluations == 0 {
					t.Errorf("Evaluations = 0, want > 0")
				}
			})

			t.Run("deterministic", func(t *testing.T) {
				run := func() *scheduler.Result {
					s := scheduler.MustGet(name, scheduler.WithSeed(7))
					res, err := s.Schedule(context.Background(), w.Graph, w.System,
						scheduler.Budget{MaxIterations: 12})
					if err != nil {
						t.Fatalf("Schedule: %v", err)
					}
					return res
				}
				a, b := run(), run()
				if a.Makespan != b.Makespan {
					t.Errorf("same seed, different makespans: %v vs %v", a.Makespan, b.Makespan)
				}
				if len(a.Best) != len(b.Best) {
					t.Fatalf("same seed, different string lengths")
				}
				for i := range a.Best {
					if a.Best[i] != b.Best[i] {
						t.Fatalf("same seed, best strings differ at gene %d: %v vs %v", i, a.Best[i], b.Best[i])
					}
				}
			})

			t.Run("max-iterations-respected", func(t *testing.T) {
				s := scheduler.MustGet(name, scheduler.WithSeed(1))
				const limit = 5
				res, err := s.Schedule(context.Background(), w.Graph, w.System,
					scheduler.Budget{MaxIterations: limit})
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				if res.Iterations > limit {
					t.Errorf("Iterations = %d, want <= %d", res.Iterations, limit)
				}
			})

			t.Run("time-budget-respected", func(t *testing.T) {
				s := scheduler.MustGet(name, scheduler.WithSeed(1))
				budget := 50 * time.Millisecond
				start := time.Now()
				if _, err := s.Schedule(context.Background(), w.Graph, w.System,
					scheduler.Budget{TimeBudget: budget}); err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				// Generous slack: the run stops at an iteration boundary.
				if elapsed := time.Since(start); elapsed > budget+2*time.Second {
					t.Errorf("run took %v against a %v budget", elapsed, budget)
				}
			})

			t.Run("trace-and-progress", func(t *testing.T) {
				s := scheduler.MustGet(name, scheduler.WithSeed(1), scheduler.WithTrace())
				var calls int
				res, err := s.Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{
					MaxIterations: 6,
					OnProgress: func(p scheduler.Progress) bool {
						calls++
						if p.Best <= 0 {
							t.Errorf("Progress.Best = %v, want > 0", p.Best)
						}
						return true
					},
				})
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				if calls == 0 {
					t.Error("OnProgress never called")
				}
				if len(res.Trace) != calls {
					t.Errorf("Trace has %d entries, OnProgress saw %d", len(res.Trace), calls)
				}
			})

			t.Run("cancelled-context", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				s := scheduler.MustGet(name, scheduler.WithSeed(1))
				if _, err := s.Schedule(ctx, w.Graph, w.System,
					scheduler.Budget{MaxIterations: 5}); err != context.Canceled {
					t.Errorf("Schedule on cancelled ctx = %v, want context.Canceled", err)
				}
			})

			if info.Kind == scheduler.Metaheuristic {
				// Budget.NoImprovement reaches every engine through its
				// own Stalled test (SA scales blocks to proposed moves,
				// se-shard stalls region by region): the run must stop
				// well before the iteration cap, with its best-so-far
				// unchanged over the final noImprove iterations.
				t.Run("no-improvement-stops-run", func(t *testing.T) {
					const noImprove, limit = 5, 20000
					s := scheduler.MustGet(name, scheduler.WithSeed(1), scheduler.WithTrace())
					res, err := s.Schedule(context.Background(), w.Graph, w.System,
						scheduler.Budget{NoImprovement: noImprove, MaxIterations: limit})
					if err != nil {
						t.Fatalf("Schedule: %v", err)
					}
					if res.Iterations >= limit {
						t.Fatalf("NoImprovement %d did not stop the run before %d iterations", noImprove, limit)
					}
					n := len(res.Trace)
					if n < noImprove {
						t.Fatalf("run stalled after %d iterations, before %d could pass", n, noImprove)
					}
					before := res.Trace[max(0, n-noImprove-1)].Best
					for _, p := range res.Trace[n-noImprove:] {
						if p.Best != before {
							t.Fatalf("best improved within the final %d iterations: %v → %v (iteration %d)",
								noImprove, before, p.Best, p.Iteration)
						}
					}
				})

				t.Run("on-progress-stops-run", func(t *testing.T) {
					s := scheduler.MustGet(name, scheduler.WithSeed(1))
					res, err := s.Schedule(context.Background(), w.Graph, w.System, scheduler.Budget{
						MaxIterations: 1000,
						OnProgress:    func(scheduler.Progress) bool { return false },
					})
					if err != nil {
						t.Fatalf("Schedule: %v", err)
					}
					if res.Iterations > 2 {
						t.Errorf("false-returning OnProgress did not stop the run: %d iterations", res.Iterations)
					}
				})

				// The serving layer (internal/serve) tears sessions down by
				// cancelling the run's context and still records what the
				// search found: the Step loop must notice the cancellation
				// at the next iteration boundary, return promptly, AND hand
				// back a valid best-so-far result alongside
				// context.Canceled.
				t.Run("mid-run-cancellation", func(t *testing.T) {
					type outcome struct {
						res *scheduler.Result
						err error
					}
					ctx, cancel := context.WithCancel(context.Background())
					s := scheduler.MustGet(name, scheduler.WithSeed(1))
					done := make(chan outcome, 1)
					go func() {
						res, err := s.Schedule(ctx, w.Graph, w.System, scheduler.Budget{})
						done <- outcome{res, err}
					}()
					time.Sleep(20 * time.Millisecond)
					cancelled := time.Now()
					cancel()
					select {
					case o := <-done:
						if since := time.Since(cancelled); since > 2*time.Second {
							t.Errorf("scheduler took %v to return after cancellation", since)
						}
						if o.err != context.Canceled {
							t.Errorf("mid-run cancel returned %v, want context.Canceled", o.err)
						}
						if o.res == nil {
							t.Fatal("mid-run cancel returned no best-so-far result")
						}
						if err := schedule.Validate(o.res.Best, w.Graph, w.System); err != nil {
							t.Fatalf("best-so-far after cancellation is invalid: %v", err)
						}
						got := schedule.NewEvaluator(w.Graph, w.System).Makespan(o.res.Best)
						if math.Abs(got-o.res.Makespan) > 1e-9 {
							t.Errorf("best-so-far Makespan = %v but re-evaluating gives %v", o.res.Makespan, got)
						}
						if o.res.Makespan < lb {
							t.Errorf("best-so-far makespan %v below the lower bound %v", o.res.Makespan, lb)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("scheduler did not stop after cancellation")
					}
				})
			}
		})
	}
}
