package scheduler

import (
	"context"
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/snap"
	"repro/internal/taskgraph"
)

// Snapshot envelope format: the algorithm-agnostic framing around each
// engine's own payload. Bump envelopeVersion on layout changes.
const (
	envelopeMagic   = "MSHS"
	envelopeVersion = 1
)

// Stepper is the engine contract every registered algorithm implements
// behind a Search: one natural iteration per Step, best-so-far
// finalization, deterministic state encoding, and the stagnation test the
// Budget's NoImprovement criterion drives. The metaheuristic engines
// (core.Engine, sa.Engine, tabu.Engine, ga.Engine, shard.Engine) implement
// it themselves and Drive is their only budget loop; only constructive
// heuristics and se-dist's coordinator sit behind small adapters.
// Steppers are not safe for concurrent use.
type Stepper interface {
	// Step executes one iteration and returns its observation.
	Step() Progress
	// Result finalizes the best-so-far outcome without perturbing the
	// search: the engine remains steppable and a mid-run call must not
	// change what subsequent Steps compute.
	Result() *Result
	// Snapshot encodes the complete engine state (see Search.Snapshot).
	Snapshot() ([]byte, error)
	// Stalled reports whether the search has gone noImprove Budget
	// iterations without improving its best — each engine converts from
	// its native stagnation unit (SA counts proposed moves per block,
	// the sharded sweep tracks per-region stagnation).
	Stalled(noImprove int) bool
	// Done reports that the search cannot advance further (constructive
	// heuristics after their single pass; false forever for
	// metaheuristics).
	Done() bool
}

// Search is one resumable run of an algorithm on a fixed (graph, system)
// pair: the caller drives it iteration by iteration, reads the best
// solution at any point, and can serialize the entire search state to
// bytes and revive it later — in another process or on another machine —
// with bit-identical continuation. Open and Restore construct them; a
// Search is not safe for concurrent use.
type Search interface {
	// Name returns the registry name the search was opened under.
	Name() string
	// Step executes one iteration and returns its observation, plus
	// whether the search can continue: false once a constructive
	// heuristic has built its solution, or when ctx is already
	// cancelled (the iteration is then skipped).
	Step(ctx context.Context) (Progress, bool)
	// Best returns the best-so-far outcome. It does not perturb the
	// search; stepping may continue afterwards.
	Best() Result
	// Snapshot encodes the complete search state — solution strings,
	// populations, rng stream positions, tabu lists, temperatures — as a
	// versioned, deterministic byte string. Restore rebuilds a search
	// from it that continues bit-identically to this one.
	Snapshot() ([]byte, error)
}

// search is the registry's Search implementation: a Stepper plus the
// envelope metadata Snapshot/Restore frame it with.
type search struct {
	name    string
	g       *taskgraph.Graph
	sys     *platform.System
	st      Stepper
	observe func(Progress) // Config.Observer; nil = no tap
}

func (s *search) Name() string { return s.name }

func (s *search) Step(ctx context.Context) (Progress, bool) {
	if ctx.Err() != nil || s.st.Done() {
		return Progress{}, false
	}
	pr := s.st.Step()
	if s.observe != nil {
		s.observe(pr)
	}
	return pr, !s.st.Done()
}

func (s *search) Best() Result { return *s.st.Result() }

// Done reports that the search cannot advance further. Callers holding a
// Search can reach it by asserting interface{ Done() bool } — kept off
// the Search interface so foreign implementations stay minimal.
func (s *search) Done() bool { return s.st.Done() }

// Stalled exposes the engine's stagnation test to Drive.
func (s *search) Stalled(noImprove int) bool { return s.st.Stalled(noImprove) }

// Snapshot wraps the engine payload in the versioned envelope: algorithm
// name plus the workload dimensions, so Restore can reject a snapshot
// replayed against the wrong graph or system before the engine decodes
// anything.
func (s *search) Snapshot() ([]byte, error) {
	payload, err := s.st.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("scheduler: snapshot %s: %w", s.name, err)
	}
	w := snap.Borrow(envelopeMagic, envelopeVersion)
	w.Str(s.name)
	w.Int(s.g.NumTasks())
	w.Int(s.sys.NumMachines())
	w.Int(s.g.NumItems())
	w.Blob(payload)
	return w.Detach(), nil
}

// Open builds a ready-to-step Search for the named algorithm on (g, sys)
// with the given options. Unlike Schedule, no Budget is involved: the
// caller's Step loop bounds the search.
func Open(name string, g *taskgraph.Graph, sys *platform.System, opts ...Option) (Search, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	st, err := e.open(cfg, g, sys)
	if err != nil {
		return nil, err
	}
	return &search{name: name, g: g, sys: sys, st: st, observe: cfg.Observer}, nil
}

// Restore rebuilds the named algorithm's Search from a Snapshot taken on
// the same (graph, system) pair. The restored search continues
// bit-identically to the one the snapshot described: same future Step
// observations, same final best string and makespan. Snapshots from a
// different algorithm, workload shape or format version — and truncated
// or corrupted bytes — surface as errors, never panics.
//
// Restore hooks rebuild engines purely from snapshot bytes, so of the
// options only the observation taps apply here: WithObserver attaches to
// the revived search (the serving layer re-hangs its gauges on revived
// sessions this way); every state-shaping option is ignored — that state
// lives in the snapshot.
func Restore(name string, snapshot []byte, g *taskgraph.Graph, sys *platform.System, opts ...Option) (Search, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	r, err := snap.NewReader(snapshot, envelopeMagic, envelopeVersion)
	if err != nil {
		return nil, fmt.Errorf("scheduler: restore: %w", err)
	}
	snapName := r.Str()
	tasks := r.Int()
	machines := r.Int()
	items := r.Int()
	// A view suffices: every registered restore hook decodes by copying
	// fields out of the payload and retains no reference into it.
	payload := r.BlobView()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("scheduler: restore: %w", err)
	}
	if snapName != name {
		return nil, fmt.Errorf("scheduler: restore: snapshot is of algorithm %q, not %q", snapName, name)
	}
	if tasks != g.NumTasks() || machines != sys.NumMachines() || items != g.NumItems() {
		return nil, fmt.Errorf("scheduler: restore: snapshot taken on a %d-task/%d-machine/%d-item workload, got %d/%d/%d",
			tasks, machines, items, g.NumTasks(), sys.NumMachines(), g.NumItems())
	}
	st, err := e.restore(payload, g, sys)
	if err != nil {
		return nil, err
	}
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return &search{name: name, g: g, sys: sys, st: st, observe: cfg.Observer}, nil
}

// Envelope frames an engine payload in the same versioned envelope
// Search.Snapshot writes: algorithm name plus workload dimensions. It is
// the seam the distributed coordinator uses to ship a bare region-engine
// snapshot to a worker's resume endpoint, which validates the frame
// exactly as Restore does.
func Envelope(name string, tasks, machines, items int, payload []byte) []byte {
	w := snap.Borrow(envelopeMagic, envelopeVersion)
	w.Str(name)
	w.Int(tasks)
	w.Int(machines)
	w.Int(items)
	w.Blob(payload)
	return w.Detach()
}

// EnvelopePayload unwraps a snapshot envelope into the algorithm name and
// the engine payload it frames — the inverse of Envelope. The returned
// payload aliases snapshot; copy it if snapshot's backing array will be
// reused.
func EnvelopePayload(snapshot []byte) (string, []byte, error) {
	r, err := snap.NewReader(snapshot, envelopeMagic, envelopeVersion)
	if err != nil {
		return "", nil, fmt.Errorf("scheduler: %w", err)
	}
	name := r.Str()
	r.Int() // tasks
	r.Int() // machines
	r.Int() // items
	payload := r.BlobView()
	if err := r.Done(); err != nil {
		return "", nil, fmt.Errorf("scheduler: %w", err)
	}
	return name, payload, nil
}

// SnapshotAlgorithm reports which algorithm a snapshot envelope was taken
// from, without restoring it — servers use it to route resumes, CLIs to
// default their -algo flag.
func SnapshotAlgorithm(snapshot []byte) (string, error) {
	r, err := snap.NewReader(snapshot, envelopeMagic, envelopeVersion)
	if err != nil {
		return "", fmt.Errorf("scheduler: %w", err)
	}
	name := r.Str()
	if r.Err() != nil {
		return "", fmt.Errorf("scheduler: %w", r.Err())
	}
	return name, nil
}

// Drive runs s to the budget: the same loop Scheduler.Schedule uses, in
// its exported form so callers that Open or Restore a Search themselves
// (cmd/mshc's -resume, the runner's races) finish it under standard
// Budget semantics. Cancelling ctx stops the loop at the next iteration
// boundary and returns the best-so-far Result alongside ctx.Err(). The
// caller must bound the loop (a Budget criterion or a cancellable ctx):
// an unbounded metaheuristic steps forever.
func Drive(ctx context.Context, s Search, b Budget) (*Result, error) {
	return drive(ctx, s, b, false)
}

// drive is the budget loop over one search. Trace collection is the one
// knob Drive does not expose: it belongs to Get-time configuration
// (WithTrace), so only Schedule sets it.
func drive(ctx context.Context, s Search, b Budget, trace bool) (*Result, error) {
	start := time.Now()
	var collected []Progress
	steps := 0
	cancelled := false
	for {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		if searchDone(s) {
			// Already exhausted before this iteration — Step would skip
			// without executing, so no observation is fabricated for it.
			// Matters to re-driven searches: a finished constructive
			// heuristic driven again must deliver zero OnProgress calls,
			// not one zero-valued phantom.
			break
		}
		pr, more := s.Step(ctx)
		if !more && !searchDone(s) && ctx.Err() != nil {
			// The context was cancelled between the loop-top check and
			// the Step call: the iteration was skipped, not executed, so
			// nothing is recorded and the run reports its cancellation.
			cancelled = true
			break
		}
		steps++
		if trace {
			collected = append(collected, pr)
		}
		if b.OnProgress != nil && !b.OnProgress(pr) {
			break
		}
		if !more {
			break
		}
		if b.MaxIterations > 0 && steps >= b.MaxIterations {
			break
		}
		if b.TimeBudget > 0 && time.Since(start) >= b.TimeBudget {
			break
		}
		if b.NoImprovement > 0 && stalled(s, b.NoImprovement) {
			break
		}
	}
	res := s.Best()
	res.Trace = collected
	res.Elapsed = time.Since(start)
	if cancelled {
		return &res, ctx.Err()
	}
	return &res, nil
}

// stalled asks the search's engine for its stagnation verdict; a foreign
// Search implementation without one never reports stalling (the caller's
// other criteria bound the run).
func stalled(s Search, noImprove int) bool {
	if st, ok := s.(interface{ Stalled(int) bool }); ok {
		return st.Stalled(noImprove)
	}
	return false
}

// searchDone reads the search's exhaustion flag without stepping it; a
// foreign Search implementation without one reports not-done, so its
// final executed iteration is still recorded.
func searchDone(s Search) bool {
	d, ok := s.(interface{ Done() bool })
	return ok && d.Done()
}

// algoScheduler adapts a registry entry to the one-shot Scheduler
// interface: Schedule opens a fresh Search and drives it to the budget.
type algoScheduler struct {
	info Info
	cfg  Config
	open OpenFunc
}

func (a *algoScheduler) Name() string { return a.info.Name }

func (a *algoScheduler) Schedule(ctx context.Context, g *taskgraph.Graph, sys *platform.System, b Budget) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// An iterative run must be bounded by the caller. A cancellable
	// context counts — cancelling it is how servers bound a run they
	// cannot size in advance.
	if a.info.Kind == Metaheuristic &&
		b.MaxIterations <= 0 && b.TimeBudget <= 0 && b.NoImprovement <= 0 &&
		b.OnProgress == nil && ctx.Done() == nil {
		return nil, fmt.Errorf("scheduler: %s: no stopping criterion set (Budget.MaxIterations, TimeBudget, NoImprovement, OnProgress, or a cancellable context)", a.info.Name)
	}
	st, err := a.open(a.cfg, g, sys)
	if err != nil {
		return nil, err
	}
	s := &search{name: a.info.Name, g: g, sys: sys, st: st, observe: a.cfg.Observer}
	return drive(ctx, s, b, a.cfg.Trace)
}
