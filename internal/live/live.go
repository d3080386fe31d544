// Package live is the online-scheduling mode: a deterministic,
// tick-driven simulation harness plus the warm-start rescheduling engine
// that lets a running search survive workload churn.
//
// The static pipeline solves one frozen (graph, system) pair. Production
// schedulers are arrival-driven: tasks stream in with dependencies on
// already-known tasks, machines join the suite, die, or change speed.
// This package models that churn as a Trace of tick-stamped Events,
// generated reproducibly from a seed (cmd/wlgen -trace) or hand-authored
// as JSON, and replays it with a tick loop that interleaves N search
// steps per tick with event application.
//
// The interesting half is what happens at each event. A Problem holds the
// mutable counterpart of a workload.Workload; Apply amends it in place —
// extending the DAG, growing the execution matrix, penalizing a departed
// machine's row — and returns a splice function that maps any solution
// string valid on the pre-amendment problem onto the amended one
// (appending genes for new tasks, reassigning genes off departed
// machines, with schedule.Repair as the topological safety net). The
// replay loop feeds the spliced current/best strings through
// scheduler.Rebase, so the same engine keeps stepping across amendments:
// rng stream position, iteration counter and effort ledger all carry
// over. A -cold ablation re-Opens from scratch instead, which is how the
// warm-start win is measured (see Report.Segments).
//
// Everything is deterministic: equal (trace, Options) inputs replay to
// bit-identical solutions, which is what makes churn recovery testable —
// the CI live-smoke gate pins a 200-event trace to its exact final
// makespan and solution string.
package live

import (
	"fmt"

	"repro/internal/workload"
)

// Event kinds. Kind strings are the wire vocabulary of trace files and
// the serving layer's events endpoint.
const (
	// KindTaskArrival adds a batch of tasks, each with data-item
	// dependencies on already-known tasks (or earlier tasks of the same
	// batch) and a per-machine execution-time row.
	KindTaskArrival = "task_arrival"
	// KindMachineJoin adds one machine: an execution-time row for every
	// known task plus per-existing-machine link coefficients for the new
	// transfer-matrix pairs.
	KindMachineJoin = "machine_join"
	// KindMachineLeave removes a machine from service. The matrix row
	// survives with its times multiplied by LeavePenalty, so existing
	// solution strings stay well-formed; the splice reassigns the
	// machine's genes and the penalty keeps the search from ever placing
	// work there again.
	KindMachineLeave = "machine_leave"
	// KindMachineSpeed rescales one machine's execution row by a
	// multiplicative factor: > 1 degrades, < 1 recovers. Factors are
	// relative so the amended matrix is the complete state — a session
	// spilled to the durable store and revived mid-trace loses nothing.
	KindMachineSpeed = "machine_speed"
)

// LeavePenalty multiplies a departed machine's execution row. It is large
// enough that no ranked-machine query or search move ever prefers a
// departed machine, while keeping every exec entry finite and positive
// (the platform layer rejects non-positive times).
const LeavePenalty = 1e6

// Dep is one data-item dependency of an arriving task: the producing
// task (by dense TaskID) and the item's abstract size.
type Dep struct {
	Producer int     `json:"producer"`
	Size     float64 `json:"size"`
}

// TaskSpec describes one arriving task. Exec must hold one entry per
// machine the problem has at the moment the event applies (departed
// machines included — their entries are penalized on splice-in).
// Producers must be already-known tasks or earlier tasks of the same
// batch, so arrivals can never introduce a cycle.
type TaskSpec struct {
	Name string    `json:"name,omitempty"`
	Deps []Dep     `json:"deps,omitempty"`
	Exec []float64 `json:"exec"`
}

// Event is one timestamped amendment. Tick is the simulation tick it
// applies at (events on the same tick apply in trace order, before that
// tick's search steps). Exactly the fields of its Kind are consulted.
type Event struct {
	Tick int    `json:"tick"`
	Kind string `json:"kind"`

	// Tasks is the arriving batch (KindTaskArrival).
	Tasks []TaskSpec `json:"tasks,omitempty"`

	// Exec is the joining machine's execution row, one entry per known
	// task; Links holds one transfer-link coefficient per existing
	// machine — the new pair's transfer time for item d is
	// size_d × Links[existing] (KindMachineJoin).
	Exec  []float64 `json:"exec,omitempty"`
	Links []float64 `json:"links,omitempty"`

	// Machine selects the affected machine (KindMachineLeave,
	// KindMachineSpeed).
	Machine int `json:"machine,omitempty"`
	// Factor is the multiplicative speed change (KindMachineSpeed).
	Factor float64 `json:"factor,omitempty"`
}

// Trace is one replayable churn scenario: the base workload parameters
// and the event sequence. Equal traces replay to bit-identical results.
type Trace struct {
	Name string `json:"name"`
	// Seed records the generator seed for provenance (zero for
	// hand-authored traces); replay determinism comes from the events
	// themselves.
	Seed   int64           `json:"seed,omitempty"`
	Base   workload.Params `json:"base"`
	Events []Event         `json:"events"`
}

// MaxTick caps a trace's event ticks and a replay's tick span, its last
// event's tick plus Options.TailTicks. A replay runs StepsPerTick search
// iterations and records one Sample per tick of its span, so its work and
// its report grow with the span, not with the trace's size: one event at
// tick 9.2e18 is a few dozen bytes of JSON that would replay practically
// forever, and one at math.MaxInt64 would overflow the span to a replay
// of zero ticks that silently drops the event. 2^16 ticks is about 200
// times the span of the committed 200-event trace (329 ticks), reached by
// GenerateTrace only past MaxEvents, and keeps the span far from int
// overflow.
const MaxTick = 1 << 16

// MaxEvents caps TraceParams.Events: the generator advances at most three
// ticks per event, so every generated trace stays within MaxTick.
const MaxEvents = MaxTick / 3

// LastTick returns the tick of the latest event, or 0 for an empty
// trace.
func (tr *Trace) LastTick() int {
	last := 0
	for _, ev := range tr.Events {
		if ev.Tick > last {
			last = ev.Tick
		}
	}
	return last
}

// Validate reports the first structural fault of the trace: an unknown
// event kind, a negative tick or one past MaxTick, or out-of-order ticks.
// Per-event payload validation (row lengths, producer ranges) happens at
// Apply time, where the problem's current shape is known.
func (tr *Trace) Validate() error {
	if err := tr.Base.Validate(); err != nil {
		return fmt.Errorf("live: trace %q: base: %w", tr.Name, err)
	}
	prev := 0
	for i, ev := range tr.Events {
		switch ev.Kind {
		case KindTaskArrival, KindMachineJoin, KindMachineLeave, KindMachineSpeed:
		default:
			return fmt.Errorf("live: trace %q: event %d: unknown kind %q", tr.Name, i, ev.Kind)
		}
		if ev.Tick < 0 || ev.Tick > MaxTick {
			return fmt.Errorf("live: trace %q: event %d: tick %d outside [0, %d]", tr.Name, i, ev.Tick, MaxTick)
		}
		if ev.Tick < prev {
			return fmt.Errorf("live: trace %q: event %d: tick %d before predecessor's %d", tr.Name, i, ev.Tick, prev)
		}
		prev = ev.Tick
	}
	return nil
}
