package runner_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func raceWorkload() *workload.Workload {
	return workload.MustGenerate(workload.Params{
		Tasks: 20, Machines: 4, Connectivity: 2, Heterogeneity: 6, CCR: 0.5, Seed: 21,
	})
}

func TestRaceProducesSeriesPerContender(t *testing.T) {
	w := raceWorkload()
	series, err := runner.Race(context.Background(), 150*time.Millisecond, []runner.Contender{
		runner.Entry("SE", "se", w.Graph, w.System, scheduler.WithSeed(1), scheduler.WithY(2)),
		runner.Entry("GA", "ga", w.Graph, w.System, scheduler.WithSeed(1)),
		runner.Entry("SA", "sa", w.Graph, w.System, scheduler.WithSeed(1)),
	})
	if err != nil {
		t.Fatalf("Race: %v", err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3", len(series))
	}
	names := []string{"SE", "GA", "SA"}
	for i, s := range series {
		if s.Name != names[i] {
			t.Errorf("series[%d].Name = %q, want %q", i, s.Name, names[i])
		}
		if len(s.Points) == 0 {
			t.Errorf("series %q is empty", s.Name)
		}
	}
}

func TestRaceAcceptsEveryRegisteredScheduler(t *testing.T) {
	w := raceWorkload()
	var contenders []runner.Contender
	for _, name := range scheduler.Names() {
		contenders = append(contenders,
			runner.Entry(name, name, w.Graph, w.System, scheduler.WithSeed(1)))
	}
	series, err := runner.Race(context.Background(), 30*time.Millisecond, contenders)
	if err != nil {
		t.Fatalf("Race over all registered schedulers: %v", err)
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Errorf("series %q is empty", s.Name)
		}
		if last := s.Last(); last <= 0 {
			t.Errorf("series %q final makespan = %v, want > 0", s.Name, last)
		}
	}
}

func TestRaceSeriesMonotone(t *testing.T) {
	w := raceWorkload()
	series, err := runner.Race(context.Background(), 100*time.Millisecond, []runner.Contender{
		runner.Entry("SE", "se", w.Graph, w.System, scheduler.WithSeed(3)),
	})
	if err != nil {
		t.Fatalf("Race: %v", err)
	}
	pts := series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Y > pts[i-1].Y {
			t.Errorf("best-so-far increased at sample %d: %v → %v", i, pts[i-1].Y, pts[i].Y)
		}
		if pts[i].X < pts[i-1].X {
			t.Errorf("time went backwards at sample %d", i)
		}
	}
}

func TestRacePropagatesErrors(t *testing.T) {
	boom := runner.Contender{
		Name: "boom",
		Run: func(context.Context, time.Duration, func(time.Duration, float64)) (float64, error) {
			return 0, fmt.Errorf("exploded")
		},
	}
	_, err := runner.Race(context.Background(), time.Millisecond, []runner.Contender{boom})
	if err == nil {
		t.Fatal("Race swallowed contender error")
	}
}

func TestTrialsSummarizes(t *testing.T) {
	sum, finals, err := runner.Trials(8, 4, 100, func(seed int64) (float64, error) {
		return float64(seed), nil
	})
	if err != nil {
		t.Fatalf("Trials: %v", err)
	}
	if len(finals) != 8 {
		t.Fatalf("finals = %v", finals)
	}
	// Seeds 100..107 in order.
	for i, f := range finals {
		if f != float64(100+i) {
			t.Errorf("finals[%d] = %v, want %v (per-seed slot)", i, f, 100+i)
		}
	}
	if sum.N != 8 || sum.Min != 100 || sum.Max != 107 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestTrialsPropagatesError(t *testing.T) {
	_, _, err := runner.Trials(3, 2, 0, func(seed int64) (float64, error) {
		if seed == 1 {
			return 0, fmt.Errorf("trial failed")
		}
		return 1, nil
	})
	if err == nil {
		t.Fatal("Trials swallowed error")
	}
}

func TestTrialsRejectsZeroRuns(t *testing.T) {
	_, _, err := runner.Trials(0, 1, 0, func(int64) (float64, error) { return 0, nil })
	if err == nil {
		t.Fatal("Trials accepted n = 0")
	}
}

func TestTrialsWithRegisteredScheduler(t *testing.T) {
	w := raceWorkload()
	sum, _, err := runner.Trials(4, 2, 1, func(seed int64) (float64, error) {
		s, err := scheduler.Open("se", w.Graph, w.System, scheduler.WithSeed(seed))
		if err != nil {
			return 0, err
		}
		res, err := scheduler.Drive(t.Context(), s, scheduler.Budget{MaxIterations: 30})
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	})
	if err != nil {
		t.Fatalf("Trials: %v", err)
	}
	if sum.Mean <= 0 {
		t.Errorf("mean makespan = %v", sum.Mean)
	}
	if sum.Min > sum.Max {
		t.Errorf("summary inconsistent: %+v", sum)
	}
}

func TestRaceCancelledContext(t *testing.T) {
	w := raceWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runner.Race(ctx, time.Second, []runner.Contender{
		runner.Entry("SE", "se", w.Graph, w.System, scheduler.WithSeed(1)),
	})
	if err == nil {
		t.Fatal("Race on a cancelled context reported no error")
	}
}
