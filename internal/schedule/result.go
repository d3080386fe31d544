package schedule

import "time"

// Progress is one search iteration's observation — the value every engine
// Step returns, delivered to scheduler.Budget.OnProgress.
type Progress struct {
	// Iteration numbers iterations from 0.
	Iteration int
	// Current is the schedule length of the engine's current solution
	// (for population engines, the best of the current generation; for
	// the sharded sweep, the max over the regions' local makespans).
	Current float64
	// Best is the best schedule length seen so far.
	Best float64
	// Selected is the size of SE's selection set this iteration (the
	// quantity of the paper's Figure 3a; summed over regions for the
	// sharded sweep). Zero for other engines.
	Selected int
	// Elapsed is accumulated search time, carried across
	// snapshot/restore cycles.
	Elapsed time.Duration
}

// Result is the uniform outcome of a search: what every engine's Result
// returns and what scheduler.Drive and Search.Best report.
type Result struct {
	// Best is the best matching+scheduling string found.
	Best String
	// Makespan is Best's schedule length under the shared evaluator.
	Makespan float64
	// Iterations is the number of iterations executed (1 for constructive
	// heuristics), accumulated across snapshot/restore cycles.
	Iterations int
	// Evaluations counts full schedule evaluations across all goroutines,
	// including incremental-engine pins (each pin is one full pass).
	// Evaluation ledgers are part of search state: like Iterations, they
	// accumulate across snapshot/restore cycles, so a run resumed in
	// another process — or re-dispatched to another machine — reports the
	// same effort an uninterrupted run reports.
	Evaluations uint64
	// DeltaEvaluations counts checkpointed suffix replays by the
	// incremental evaluation engine (DeltaEvaluator). Zero for
	// constructive heuristics and for GA, which scores every chromosome
	// with a full pass.
	DeltaEvaluations uint64
	// GenesEvaluated counts individual gene evaluation steps across full
	// and delta evaluations — the effort measure the incremental engine
	// shrinks. Zero for constructive heuristics.
	GenesEvaluated uint64
	// Elapsed is the total wall-clock duration of the run.
	Elapsed time.Duration
}

// NewResult assembles a Result from a best string, its makespan, an
// iteration count, an effort ledger and accumulated search time.
func NewResult(best String, makespan float64, iterations int, counts EvalCounts, elapsed time.Duration) *Result {
	return &Result{
		Best:             best,
		Makespan:         makespan,
		Iterations:       iterations,
		Evaluations:      counts.Full,
		DeltaEvaluations: counts.Delta,
		GenesEvaluated:   counts.Genes,
		Elapsed:          elapsed,
	}
}
