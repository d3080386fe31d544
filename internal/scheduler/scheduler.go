// Package scheduler defines the common abstraction every matching-and-
// scheduling algorithm in this repository implements, and a name-keyed
// registry through which they are discovered and configured.
//
// The paper's evaluation (§5) is a head-to-head of simulated evolution
// against a GA baseline and constructive heuristics under equal budgets.
// This package gives all of them one shape: a Search (Open/Step/Best/
// Snapshot, plus registry-level Restore) is the resumable engine view —
// one natural iteration per Step, best-so-far readable at any point, and
// the complete search state (solution strings, populations, rng stream
// positions, tabu lists, temperatures) serializable to versioned bytes
// that restore to a bit-identically continuing search, in this process
// or another. Every run opens (or restores) a Search and finishes it in
// Drive, the one budget loop, which also rejects metaheuristic runs that
// nothing bounds.
//
// The experiment harness (internal/runner), the figure reproductions
// (internal/experiments), the serving layer (internal/serve) and the
// command-line tools select algorithms by registry name, so adding an
// algorithm means registering one Open/Restore hook pair — races, sweeps,
// figures, serving sessions and snapshot/resume follow for free.
//
// Registered names:
//
//	metaheuristics  se, se-ils, se-live, se-shard, ga, sa, tabu
//	constructive    heft, cpop, minmin, maxmin, sufferage, mct, random
package scheduler

import (
	"time"

	"repro/internal/schedule"
)

// Budget bounds one Drive call. Iterative searches need at least one
// stopping criterion — MaxIterations, TimeBudget, NoImprovement, an
// OnProgress callback, or a cancellable context — and Drive rejects a
// metaheuristic run with none before stepping it; constructive heuristics
// run to completion regardless and ignore the bounds.
//
// A run stopped by context cancellation is not lost: Drive stops at the
// next iteration boundary and returns the best-so-far Result alongside
// ctx.Err(), so a server tearing a session down mid-run still harvests
// what the search found. The criteria compose — the run stops at
// whichever triggers first, always at an iteration boundary.
type Budget struct {
	// MaxIterations stops the run after this many iterations (0 = no
	// iteration limit). One iteration is the scheduler's natural outer
	// step — exactly one Search.Step: an SE generation, a GA generation,
	// an SA temperature block, a tabu iteration, one parallel round of
	// region generations for se-shard.
	MaxIterations int

	// TimeBudget stops the run once wall-clock time is exhausted (0 = no
	// time limit), checked between iterations. The paper's Figures 5–7
	// race schedulers under equal time budgets.
	TimeBudget time.Duration

	// NoImprovement stops the run after this many consecutive iterations
	// without improving the best schedule length (0 = disabled). Each
	// algorithm counts stagnation in its native unit behind this knob:
	// SA per proposed move (scaled by its block size), se-shard per
	// region — a sharded run stops only once every region has stagnated.
	NoImprovement int

	// OnProgress, when non-nil, is called once per iteration with that
	// iteration's observation; returning false stops the run after the
	// iteration (including its allocation/evolution phase) has completed.
	OnProgress func(Progress) bool
}

// Progress is one iteration's observation, delivered to Budget.OnProgress
// and Config.Observer. It is the type every engine's Step returns (see
// schedule.Progress).
type Progress = schedule.Progress

// Result is the uniform outcome of a Drive call or a Search.Best read
// (see schedule.Result).
type Result = schedule.Result
