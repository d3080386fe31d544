package serve

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/jsonscan"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// This file is the wire schema of the scheduling service: every request
// and response body exchanged between cmd/mshd, the Go Client, and
// cmd/mshc's -json output. Solutions travel in the paper's visual layout
// (schedule.String.Format / schedule.Parse), so they round-trip exactly;
// makespans travel as JSON float64, which encoding/json round-trips
// bit-for-bit. Together those two facts are what lets the service promise
// bit-identical results to offline runs.

// ErrorBody is the JSON envelope of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
}

// HealthResponse is GET /v1/healthz's body: liveness plus enough build
// and process metadata to tell which binary is answering — uptime, the
// Go toolchain it was built with, and the VCS state debug.ReadBuildInfo
// stamped into the binary (empty outside a VCS build).
type HealthResponse struct {
	OK        bool    `json:"ok"`
	Sessions  int     `json:"sessions"`
	UptimeSec float64 `json:"uptime_s"`
	GoVersion string  `json:"go_version"`
	// RecoveredSessions counts the sessions boot replay revived from the
	// durable store; omitted when the server runs without one.
	RecoveredSessions int `json:"recovered_sessions,omitempty"`
	// Revision and BuildTime are the VCS commit and its timestamp;
	// Modified reports a dirty working tree at build time.
	Revision  string `json:"revision,omitempty"`
	BuildTime string `json:"build_time,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// CreateSessionRequest creates a session from exactly one workload source:
// an uploaded workload document (the wlgen/workload.Encode schema), a
// named deterministic preset, or explicit generator parameters.
type CreateSessionRequest struct {
	// Workload is an inline workload JSON document (see workload.Encode).
	Workload json.RawMessage `json:"workload,omitempty"`
	// Preset names a deterministic built-in workload (workload.Preset).
	Preset string `json:"preset,omitempty"`
	// Params generates a workload from explicit parameters.
	Params *workload.Params `json:"params,omitempty"`
	// Initial optionally pins this solution as the session's base string
	// (schedule.Parse syntax). Empty pins the best constructive solution.
	Initial string `json:"initial,omitempty"`
}

// decodeCreateRequest decodes a POST /v1/sessions body exactly as
// encoding/json decodes it into a CreateSessionRequest, without walking
// the workload document with encoding/json: the top-level object's members
// are found by a validating skip, each workload member's value is replaced
// by null in a copy of the small remainder, that copy goes through
// encoding/json (so names, repeated members, nulls and errors are its
// own), and Workload is set to the last workload value as a sub-slice of
// body. Bytes after the object are ignored, as encoding/json's Decoder
// ignores them.
func decodeCreateRequest(body []byte) (CreateSessionRequest, error) {
	var req CreateSessionRequest
	s := jsonscan.New(body)
	if s.Peek() != '{' {
		// Nothing to split: encoding/json reads or rejects it whole.
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		return req, err
	}
	var docs [][2]int // byte ranges of the workload members' values
	err := s.Object(func(name []byte) error {
		if !bytes.EqualFold(name, []byte("workload")) {
			return s.Skip()
		}
		s.Peek()
		start := s.Offset()
		if err := s.Skip(); err != nil {
			return err
		}
		docs = append(docs, [2]int{start, s.Offset()})
		return nil
	})
	if err != nil {
		return req, err
	}
	var rest []byte
	from := 0
	for _, d := range docs {
		rest = append(append(rest, body[from:d[0]]...), "null"...)
		from = d[1]
	}
	rest = append(rest, body[from:s.Offset()]...)
	if err := json.Unmarshal(rest, &req); err != nil {
		return req, err
	}
	if len(docs) > 0 {
		last := docs[len(docs)-1]
		req.Workload = body[last[0]:last[1]]
	}
	return req, nil
}

// SessionInfo describes one live session.
type SessionInfo struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Tasks    int    `json:"tasks"`
	Machines int    `json:"machines"`
	Items    int    `json:"items"`
	// LowerBound is the contention-free critical-path bound.
	LowerBound float64 `json:"lower_bound"`
	// BaseMakespan is the makespan of the currently pinned base string —
	// the state move queries are answered against.
	BaseMakespan float64 `json:"base_makespan"`
	// BestMakespan is the best makespan any run or committed move in this
	// session has reached.
	BestMakespan float64 `json:"best_makespan"`
	// Runs counts completed algorithm runs; Commits counts committed moves.
	Runs    int    `json:"runs"`
	Commits int    `json:"commits"`
	Created string `json:"created"` // RFC 3339
}

// RunRequest runs one registry algorithm inside a session. Metaheuristics
// need at least one stopping criterion; constructive heuristics ignore all
// three. The search-open endpoint reuses this type for its algorithm and
// tunables; there the budget fields are ignored, because a pinned search
// is driven externally, one step request at a time.
type RunRequest struct {
	// Algorithm is a scheduler registry name ("se", "ga", "heft", …).
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed,omitempty"`

	MaxIterations int `json:"max_iterations,omitempty"`
	// TimeBudgetMS is a float so that sub-millisecond budgets survive the
	// wire exactly as cmd/mshc's -budget flag expresses them.
	TimeBudgetMS  float64 `json:"time_budget_ms,omitempty"`
	NoImprovement int     `json:"no_improvement,omitempty"`

	// Algorithm tunables, mirroring cmd/mshc's flags.
	Bias       float64 `json:"bias,omitempty"`
	Y          int     `json:"y,omitempty"`
	Population int     `json:"population,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	// Shards is se-shard's requested DAG region count (0 = adaptive). A
	// sharded session run fans out to per-region workers inside the
	// session's worker goroutine's request; the merged result keeps the
	// service's bit-identical-to-offline contract.
	Shards int `json:"shards,omitempty"`
	// WorkerURLs lists remote mshd worker base URLs for se-dist's
	// coordinator; empty steps regions in-process (bit-identical either
	// way). RoundBatch is se-dist's generations-per-worker-RPC count.
	WorkerURLs []string `json:"worker_urls,omitempty"`
	RoundBatch int      `json:"round_batch,omitempty"`

	// FromBase seeds the run with the session's pinned base string, making
	// successive runs iterative instead of independent.
	FromBase bool `json:"from_base,omitempty"`
}

// Options maps the request's algorithm tunables onto scheduler options —
// the one mapping mshd's sessions and mshc's in-process runs share.
// FromBase is session state, so the session adds it (see searchOptions).
func (r RunRequest) Options() []scheduler.Option {
	opts := []scheduler.Option{
		scheduler.WithSeed(r.Seed),
		scheduler.WithWorkers(r.Workers),
		scheduler.WithBias(r.Bias),
		scheduler.WithY(r.Y),
		scheduler.WithPopulation(r.Population),
		scheduler.WithShards(r.Shards),
		scheduler.WithRoundBatch(r.RoundBatch),
	}
	if len(r.WorkerURLs) > 0 {
		opts = append(opts, scheduler.WithWorkerURLs(r.WorkerURLs...))
	}
	return opts
}

// Budget maps the request's stopping criteria onto a scheduler.Budget.
func (r RunRequest) Budget() scheduler.Budget {
	return scheduler.Budget{
		MaxIterations: r.MaxIterations,
		TimeBudget:    time.Duration(r.TimeBudgetMS * float64(time.Millisecond)),
		NoImprovement: r.NoImprovement,
	}
}

// Result is the uniform wire form of a scheduler.Result — the same schema
// whether it came over HTTP from mshd or from an offline `mshc -json` run.
type Result struct {
	Algorithm        string  `json:"algorithm"`
	Seed             int64   `json:"seed"`
	Makespan         float64 `json:"makespan"`
	Solution         string  `json:"solution"`
	Iterations       int     `json:"iterations"`
	Evaluations      uint64  `json:"evaluations"`
	DeltaEvaluations uint64  `json:"delta_evaluations"`
	GenesEvaluated   uint64  `json:"genes_evaluated"`
	ElapsedMS        float64 `json:"elapsed_ms"`
	// Cancelled marks a best-so-far result from a run stopped by session
	// teardown or client disconnect.
	Cancelled bool `json:"cancelled,omitempty"`
}

// NewResult converts a scheduler.Result to its wire form.
func NewResult(algorithm string, seed int64, res *scheduler.Result, cancelled bool) Result {
	return Result{
		Algorithm:        algorithm,
		Seed:             seed,
		Makespan:         res.Makespan,
		Solution:         res.Best.Format(),
		Iterations:       res.Iterations,
		Evaluations:      res.Evaluations,
		DeltaEvaluations: res.DeltaEvaluations,
		GenesEvaluated:   res.GenesEvaluated,
		ElapsedMS:        float64(res.Elapsed) / float64(time.Millisecond),
		Cancelled:        cancelled,
	}
}

// ProgressEvent is one streamed iteration observation of a running
// algorithm (scheduler.Progress on the wire).
type ProgressEvent struct {
	Iteration int     `json:"iteration"`
	Current   float64 `json:"current"`
	Best      float64 `json:"best"`
	Selected  int     `json:"selected,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func newProgressEvent(p scheduler.Progress) ProgressEvent {
	return ProgressEvent{
		Iteration: p.Iteration,
		Current:   p.Current,
		Best:      p.Best,
		Selected:  p.Selected,
		ElapsedMS: float64(p.Elapsed) / float64(time.Millisecond),
	}
}

// RunEvent is one line of a streamed run response (NDJSON): zero or more
// progress events, then exactly one result or error event.
type RunEvent struct {
	Progress *ProgressEvent `json:"progress,omitempty"`
	Result   *Result        `json:"result,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// SearchInfo describes a session's pinned resumable search.
type SearchInfo struct {
	// Algorithm is the search's registry name.
	Algorithm string `json:"algorithm"`
	// Iterations is the total iteration count, accumulated across
	// snapshot/resume cycles.
	Iterations int `json:"iterations"`
	// BestMakespan is the search's best-so-far schedule length.
	BestMakespan float64 `json:"best_makespan"`
	// Done marks a search that cannot advance further (a constructive
	// heuristic after its single pass).
	Done bool `json:"done"`
}

// StepRequest advances a session's pinned search by Steps iterations
// (default 1, capped server-side; see MaxStepsPerRequest).
type StepRequest struct {
	Steps int `json:"steps,omitempty"`
	// Snapshot asks the server to serialize the stepped search into the
	// response, folding what would otherwise be a second round-trip into
	// the step request — the distributed coordinator relies on this to
	// keep one region round at one RPC while still holding every region's
	// latest restorable state.
	Snapshot bool `json:"snapshot,omitempty"`
}

// StepResponse reports one step request's outcome.
type StepResponse struct {
	// Performed is the number of iterations this request executed; Done
	// marks an exhausted search.
	Performed int  `json:"performed"`
	Done      bool `json:"done"`
	// Progress is the last executed iteration's observation.
	Progress ProgressEvent `json:"progress"`
	// BestMakespan is the search's best-so-far schedule length.
	BestMakespan float64 `json:"best_makespan"`
	// Snapshot is the stepped search's serialized state, present only
	// when the request asked for it.
	Snapshot *SearchSnapshot `json:"snapshot,omitempty"`
}

// SearchSnapshot carries a serialized search: the scheduler registry's
// versioned snapshot bytes (base64 on the wire), the algorithm to
// restore them under, and the seed the search was opened with (wire
// provenance for restored results). A restored search continues
// bit-identically.
type SearchSnapshot struct {
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed,omitempty"`
	Snapshot  []byte `json:"snapshot"`
}

// MoveRequest evaluates — and optionally commits — one move against the
// session's pinned base string: the gene at Index is moved to position To
// (valid-range coordinates, see schedule.ValidRange) on Machine.
type MoveRequest struct {
	Index   int  `json:"index"`
	To      int  `json:"to"`
	Machine int  `json:"machine"`
	Commit  bool `json:"commit,omitempty"`
}

// MoveResponse reports the evaluated move. Makespan and Total are the
// moved string's schedule length and summed finish times; BaseMakespan is
// the pinned base's makespan after the request (changed only by a commit).
type MoveResponse struct {
	Makespan     float64 `json:"makespan"`
	Total        float64 `json:"total"`
	BaseMakespan float64 `json:"base_makespan"`
	Committed    bool    `json:"committed"`
	// Improved reports whether the move beat the base it was evaluated
	// against.
	Improved bool `json:"improved"`
}

// ScheduleResponse is the session's pinned base solution.
type ScheduleResponse struct {
	Solution string  `json:"solution"`
	Makespan float64 `json:"makespan"`
}

// AnalysisResponse wraps schedule.Analyze output for the wire: the full
// structured analysis plus the human-readable report block.
type AnalysisResponse struct {
	Analysis schedule.Analysis `json:"analysis"`
	Report   string            `json:"report"`
}

// AlgorithmInfo is one registry entry (scheduler.Info on the wire).
type AlgorithmInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Summary string `json:"summary"`
}
