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
	// Done reports, without stepping, that the search cannot advance
	// further (a constructive heuristic after its single pass).
	Done() bool
	// Stalled reports whether the search has gone noImprove Budget
	// iterations without improving its best (see Stepper.Stalled).
	Stalled(noImprove int) bool
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

func (s *search) Done() bool { return s.st.Done() }

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
// with the given options; Drive runs it to a Budget. Unknown names return
// an error listing every registered name.
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

// Drive runs s to the budget — the one budget loop every run goes
// through, whether its search was just opened, restored from a snapshot
// or is being resumed for another budget. A metaheuristic search that no
// criterion bounds (see Budget) is rejected before it steps. Cancelling
// ctx stops the loop at the next iteration boundary and returns the
// best-so-far Result alongside ctx.Err().
func Drive(ctx context.Context, s Search, b Budget) (*Result, error) {
	if info, _ := Describe(s.Name()); info.Kind == Metaheuristic &&
		b.MaxIterations <= 0 && b.TimeBudget <= 0 && b.NoImprovement <= 0 &&
		b.OnProgress == nil && ctx.Done() == nil {
		return nil, fmt.Errorf("scheduler: %s: no stopping criterion set (Budget.MaxIterations, TimeBudget, NoImprovement, OnProgress, or a cancellable context)", s.Name())
	}
	start := time.Now()
	steps := 0
	cancelled := false
	for {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		if s.Done() {
			// Already exhausted before this iteration — Step would skip
			// without executing, so no observation is fabricated for it.
			// Matters to re-driven searches: a finished constructive
			// heuristic driven again must deliver zero OnProgress calls,
			// not one zero-valued phantom.
			break
		}
		pr, more := s.Step(ctx)
		if !more && !s.Done() && ctx.Err() != nil {
			// The context was cancelled between the loop-top check and
			// the Step call: the iteration was skipped, not executed, so
			// nothing is recorded and the run reports its cancellation.
			cancelled = true
			break
		}
		steps++
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
		if b.NoImprovement > 0 && s.Stalled(b.NoImprovement) {
			break
		}
	}
	res := s.Best()
	res.Elapsed = time.Since(start)
	if cancelled {
		return &res, ctx.Err()
	}
	return &res, nil
}
