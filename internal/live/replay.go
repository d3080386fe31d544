package live

import (
	"context"
	"fmt"
	"time"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// DefaultStepsPerTick is the search budget per simulation tick when
// Options.StepsPerTick is zero.
const DefaultStepsPerTick = 8

// DefaultTailTicks is how many ticks the replay keeps stepping after the
// last event when Options.TailTicks is zero, so the engine gets a
// convergence window on the final problem shape.
const DefaultTailTicks = 25

// Options configures one trace replay.
type Options struct {
	// Algo is the registry algorithm driving the search ("se-live" when
	// empty). Warm replay requires an algorithm whose engine supports
	// warm-start amendment (scheduler.CanRebase).
	Algo string
	// Seed seeds the search (and each cold restart).
	Seed int64
	// StepsPerTick is the number of search iterations interleaved
	// between ticks; zero selects DefaultStepsPerTick, and a negative
	// count is an error.
	StepsPerTick int
	// TailTicks extends the replay past the last event; zero selects
	// DefaultTailTicks, negative means none.
	TailTicks int
	// Cold is the ablation mode: every amendment re-Opens the search
	// from scratch on the amended problem instead of rebasing the live
	// engine — the baseline the warm-start win is measured against.
	Cold bool
	// Metrics, when non-nil, receives live-mode instrumentation
	// (arrivals, reschedules, repair latency, regret).
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.Algo == "" {
		o.Algo = "se-live"
	}
	if o.StepsPerTick == 0 {
		o.StepsPerTick = DefaultStepsPerTick
	}
	if o.TailTicks == 0 {
		o.TailTicks = DefaultTailTicks
	} else if o.TailTicks < 0 {
		o.TailTicks = 0
	}
	return o
}

// Sample is the per-tick observation of a replay. Every field is
// deterministic — wall-clock time deliberately stays out, so reports can
// be compared bit for bit across runs.
type Sample struct {
	// Tick is the simulation tick the sample closes.
	Tick int `json:"tick"`
	// Tasks and Machines are the problem shape after this tick's events.
	Tasks    int `json:"tasks"`
	Machines int `json:"machines"`
	// Iterations is the cumulative number of search iterations executed,
	// across cold restarts.
	Iterations int `json:"iterations"`
	// Evaluations is the cumulative evaluation effort (full + delta
	// evaluations), across cold restarts — the x-axis of the
	// warm-vs-cold comparison.
	Evaluations uint64 `json:"evaluations"`
	// Best is the best makespan on the current problem shape.
	Best float64 `json:"best"`
	// Regret is Best minus the current problem's dependency lower bound
	// — the quality metric that stays comparable as the problem grows.
	Regret float64 `json:"regret"`
}

// Report is the outcome of one replay.
type Report struct {
	// Trace and Algo identify the scenario and the driving algorithm.
	Trace string `json:"trace"`
	Algo  string `json:"algo"`
	// Cold records the ablation mode the replay ran in.
	Cold bool `json:"cold"`
	// Samples holds one entry per tick.
	Samples []Sample `json:"samples"`
	// Segments indexes Samples: entry i is the first sample after the
	// i-th amendment applied. Consecutive Segments entries bracket the
	// re-convergence window of one amendment.
	Segments []int `json:"segments"`
	// TasksArrived and Reschedules count the churn handled.
	TasksArrived int `json:"tasks_arrived"`
	Reschedules  int `json:"reschedules"`
	// FinalMakespan and FinalSolution pin the deterministic outcome —
	// the CI live-smoke gate compares them exactly.
	FinalMakespan float64 `json:"final_makespan"`
	FinalSolution string  `json:"final_solution"`
}

// Replay runs the trace: a tick loop interleaving Options.StepsPerTick
// search iterations with event application. In warm mode (default) each
// event amends the live Problem and rebases the running engine through
// scheduler.Rebase, preserving its rng position and effort ledger; in
// Cold mode each event re-Opens the search from scratch on the amended
// problem. Replays are deterministic: equal (trace, Options) produce
// bit-identical Reports.
func Replay(ctx context.Context, tr *Trace, opts Options) (*Report, error) {
	if opts.StepsPerTick < 0 {
		return nil, fmt.Errorf("live: StepsPerTick = %d, want >= 0", opts.StepsPerTick)
	}
	opts = opts.withDefaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	base, err := workload.Generate(tr.Base)
	if err != nil {
		return nil, err
	}
	p := NewProblem(base)
	s, err := scheduler.Open(opts.Algo, p.Graph(), p.System(), scheduler.WithSeed(opts.Seed))
	if err != nil {
		return nil, err
	}
	if !opts.Cold && !scheduler.CanRebase(s) {
		return nil, fmt.Errorf("live: algorithm %q does not support warm-start amendment (use Cold or a rebasable algorithm like se-live)", opts.Algo)
	}

	rep := &Report{Trace: tr.Name, Algo: opts.Algo, Cold: opts.Cold}
	lower := schedule.LowerBound(p.Graph(), p.System())
	// Cold restarts reset the engine's internal ledgers; the offsets keep
	// the report's cumulative axes monotone across them.
	var evalOffset uint64
	var iterOffset int

	ei := 0
	end := tr.LastTick() + opts.TailTicks
	for tick := 0; tick <= end; tick++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for ei < len(tr.Events) && tr.Events[ei].Tick <= tick {
			ev := tr.Events[ei]
			ei++
			start := time.Now()
			if opts.Cold {
				if _, err := p.Apply(ev); err != nil {
					return nil, fmt.Errorf("live: event %d: %w", ei-1, err)
				}
				b := s.Best()
				evalOffset += b.Evaluations + b.DeltaEvaluations
				iterOffset += b.Iterations
				s, err = scheduler.Open(opts.Algo, p.Graph(), p.System(), scheduler.WithSeed(opts.Seed))
				if err != nil {
					return nil, fmt.Errorf("live: event %d: cold restart: %w", ei-1, err)
				}
			} else {
				cur, _ := scheduler.CurrentSolution(s)
				best := s.Best().Best
				splice, err := p.Apply(ev)
				if err != nil {
					return nil, fmt.Errorf("live: event %d: %w", ei-1, err)
				}
				s, err = scheduler.Rebase(s, p.Graph(), p.System(), splice(cur), splice(best))
				if err != nil {
					return nil, fmt.Errorf("live: event %d: rebase: %w", ei-1, err)
				}
			}
			lower = schedule.LowerBound(p.Graph(), p.System())
			rep.Reschedules++
			rep.TasksArrived += len(ev.Tasks)
			rep.Segments = append(rep.Segments, len(rep.Samples))
			opts.Metrics.Amended(ev, time.Since(start))
		}
		b, err := scheduler.Drive(ctx, s, scheduler.Budget{MaxIterations: opts.StepsPerTick})
		if err != nil {
			return nil, err
		}
		sample := Sample{
			Tick:        tick,
			Tasks:       p.Graph().NumTasks(),
			Machines:    p.System().NumMachines(),
			Iterations:  iterOffset + b.Iterations,
			Evaluations: evalOffset + b.Evaluations + b.DeltaEvaluations,
			Best:        b.Makespan,
			Regret:      b.Makespan - lower,
		}
		rep.Samples = append(rep.Samples, sample)
		opts.Metrics.Sampled(sample)
	}
	final := s.Best()
	rep.FinalMakespan = final.Makespan
	rep.FinalSolution = final.Best.Format()
	return rep, nil
}
