// Package core implements the paper's primary contribution: the Simulated
// Evolution (SE) heuristic for task matching and scheduling in
// heterogeneous computing systems (MSHC) of Barada, Sait & Baig
// (IPPS 2001).
//
// SE starts from a valid initial solution and repeats three steps until a
// stopping criterion is met:
//
//   - Evaluation — each subtask sᵢ gets a goodness gᵢ = Oᵢ/Cᵢ, where Oᵢ is a
//     precomputed estimate of sᵢ's optimal finish time and Cᵢ its finish
//     time in the current solution (§4.3).
//   - Selection — sᵢ is selected for relocation when a uniform random draw
//     exceeds gᵢ + B, with B the selection bias; poorly placed tasks are
//     selected with high probability, well placed ones rarely (§4.4).
//   - Allocation — each selected task is constructively re-placed: every
//     insertion position within its valid range is combined with each of
//     its Y best-matching machines, and the combination yielding the best
//     overall schedule length wins (§4.5).
//
// The solution encoding and its evaluation semantics live in package
// schedule; workload models live in packages taskgraph, platform and
// workload.
package core

import "repro/internal/schedule"

// Options configures one SE search. The zero value is runnable: the
// caller's Step loop (or scheduler.Drive) bounds the search.
type Options struct {
	// Bias is the selection bias B (§4.4). The paper uses negative values
	// (−0.1 … −0.3) for small problems — selecting more tasks, searching
	// more thoroughly — and small positive values (0 … 0.1) for large
	// problems to keep iterations cheap.
	Bias float64

	// Y is the number of best-matching machines a task may be assigned to
	// during allocation (§4.5, §5.2). 0 (or ≥ machine count) allows all
	// machines.
	Y int

	// Seed drives all randomness. Runs with equal Options and inputs are
	// identical.
	Seed int64

	// InitialMoves perturbs the topologically sorted initial string with
	// this many random valid-range moves (§4.2). 0 draws a random count in
	// [0, 2k); use NoInitialMoves for none.
	InitialMoves int

	// Initial, when non-nil, is used (cloned) as the starting solution
	// instead of generating one. It must be valid for the graph/system.
	Initial schedule.String

	// Workers > 1 evaluates allocation candidates on that many goroutines.
	// Results are bit-identical to the serial path (deterministic
	// reduction); only wall-clock time changes.
	Workers int

	// PerturbAfter, when > 0, kicks the search out of local optima: after
	// this many consecutive non-improving generations the current solution
	// is shuffled with random valid moves (the §4.2 perturbation) and the
	// descent restarts, with the best solution kept aside. This iterated-
	// local-search wrapper is an extension beyond the paper — its §4.5
	// allocation "always chooses the best location", which converges to
	// the first local optimum it reaches. 0 disables (the paper's
	// behaviour).
	PerturbAfter int
}

// NoInitialMoves disables initial-string perturbation when assigned to
// Options.InitialMoves.
const NoInitialMoves = -1
