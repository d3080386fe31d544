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

// openDrive opens name on w with opts and drives it to b under ctx: the
// one-shot run, as every caller outside the tests spells it.
func openDrive(ctx context.Context, name string, w *workload.Workload, b scheduler.Budget, opts ...scheduler.Option) (*scheduler.Result, error) {
	s, err := scheduler.Open(name, w.Graph, w.System, opts...)
	if err != nil {
		return nil, err
	}
	return scheduler.Drive(ctx, s, b)
}

// TestConformance runs every registered scheduler through the contract
// Open and Drive promise: a valid best string whose makespan matches the
// shared evaluator and respects the lower bound, determinism under a fixed
// seed, iteration/time budgets respected, OnProgress stopping the run,
// context cancellation surfacing ctx.Err(), and unbounded metaheuristic
// runs rejected before they step. One Budget iteration is one
// Search.Step, so this suite is the conformance bar for every engine
// behind Open; the snapshot/restore half of that contract lives in
// resume_test.go.
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
				res, err := openDrive(context.Background(), name, w,
					scheduler.Budget{MaxIterations: 10}, scheduler.WithSeed(1))
				if err != nil {
					t.Fatalf("Drive: %v", err)
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
					res, err := openDrive(context.Background(), name, w,
						scheduler.Budget{MaxIterations: 12}, scheduler.WithSeed(7))
					if err != nil {
						t.Fatalf("Drive: %v", err)
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
				const limit = 5
				res, err := openDrive(context.Background(), name, w,
					scheduler.Budget{MaxIterations: limit}, scheduler.WithSeed(1))
				if err != nil {
					t.Fatalf("Drive: %v", err)
				}
				if res.Iterations > limit {
					t.Errorf("Iterations = %d, want <= %d", res.Iterations, limit)
				}
			})

			t.Run("time-budget-respected", func(t *testing.T) {
				budget := 50 * time.Millisecond
				start := time.Now()
				if _, err := openDrive(context.Background(), name, w,
					scheduler.Budget{TimeBudget: budget}, scheduler.WithSeed(1)); err != nil {
					t.Fatalf("Drive: %v", err)
				}
				// Generous slack: the run stops at an iteration boundary.
				if elapsed := time.Since(start); elapsed > budget+2*time.Second {
					t.Errorf("run took %v against a %v budget", elapsed, budget)
				}
			})

			t.Run("trace-and-progress", func(t *testing.T) {
				var calls, taps int
				res, err := openDrive(context.Background(), name, w, scheduler.Budget{
					MaxIterations: 6,
					OnProgress: func(p scheduler.Progress) bool {
						calls++
						if p.Best <= 0 {
							t.Errorf("Progress.Best = %v, want > 0", p.Best)
						}
						return true
					},
				}, scheduler.WithSeed(1), scheduler.WithObserver(func(scheduler.Progress) { taps++ }))
				if err != nil {
					t.Fatalf("Drive: %v", err)
				}
				if calls == 0 {
					t.Error("OnProgress never called")
				}
				if calls != taps || calls != res.Iterations {
					t.Errorf("OnProgress saw %d iterations, the observer %d, Result reports %d",
						calls, taps, res.Iterations)
				}
			})

			t.Run("cancelled-context", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := openDrive(ctx, name, w,
					scheduler.Budget{MaxIterations: 5}, scheduler.WithSeed(1)); err != context.Canceled {
					t.Errorf("Drive on cancelled ctx = %v, want context.Canceled", err)
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
					var trace []scheduler.Progress
					res, err := openDrive(context.Background(), name, w, scheduler.Budget{
						NoImprovement: noImprove,
						MaxIterations: limit,
						OnProgress:    func(p scheduler.Progress) bool { trace = append(trace, p); return true },
					}, scheduler.WithSeed(1))
					if err != nil {
						t.Fatalf("Drive: %v", err)
					}
					if res.Iterations >= limit {
						t.Fatalf("NoImprovement %d did not stop the run before %d iterations", noImprove, limit)
					}
					n := len(trace)
					if n < noImprove {
						t.Fatalf("run stalled after %d iterations, before %d could pass", n, noImprove)
					}
					before := trace[max(0, n-noImprove-1)].Best
					for _, p := range trace[n-noImprove:] {
						if p.Best != before {
							t.Fatalf("best improved within the final %d iterations: %v → %v (iteration %d)",
								noImprove, before, p.Best, p.Iteration)
						}
					}
				})

				t.Run("on-progress-stops-run", func(t *testing.T) {
					res, err := openDrive(context.Background(), name, w, scheduler.Budget{
						MaxIterations: 1000,
						OnProgress:    func(scheduler.Progress) bool { return false },
					}, scheduler.WithSeed(1))
					if err != nil {
						t.Fatalf("Drive: %v", err)
					}
					if res.Iterations > 2 {
						t.Errorf("false-returning OnProgress did not stop the run: %d iterations", res.Iterations)
					}
				})

				// Drive owns the stopping-criterion check: a metaheuristic
				// search that nothing bounds is rejected before it steps,
				// whether it was opened or restored (mshc -resume's path).
				t.Run("unbounded-drive-rejected", func(t *testing.T) {
					tap := scheduler.WithObserver(func(scheduler.Progress) {
						t.Fatal("Drive stepped a search no criterion bounds")
					})
					opened, err := scheduler.Open(name, w.Graph, w.System, scheduler.WithSeed(1), tap)
					if err != nil {
						t.Fatalf("Open: %v", err)
					}
					data, err := opened.Snapshot()
					if err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
					restored, err := scheduler.Restore(name, data, w.Graph, w.System, tap)
					if err != nil {
						t.Fatalf("Restore: %v", err)
					}
					for _, s := range []scheduler.Search{opened, restored} {
						if _, err := scheduler.Drive(context.Background(), s, scheduler.Budget{}); err == nil {
							t.Fatal("Drive accepted an unbounded run")
						}
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
					done := make(chan outcome, 1)
					go func() {
						res, err := openDrive(ctx, name, w, scheduler.Budget{}, scheduler.WithSeed(1))
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
