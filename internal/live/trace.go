package live

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/workload"
)

// TraceParams configures GenerateTrace.
type TraceParams struct {
	// Base generates the workload the scenario starts from.
	Base workload.Params
	// Events is the number of churn events (1 to MaxEvents).
	Events int
	// Seed drives all randomness; equal TraceParams generate equal
	// traces.
	Seed int64
}

// Validate reports the first invalid field of p.
func (p TraceParams) Validate() error {
	if err := p.Base.Validate(); err != nil {
		return err
	}
	if p.Events < 1 || p.Events > MaxEvents {
		return fmt.Errorf("live: Events = %d, want 1 to %d", p.Events, MaxEvents)
	}
	return nil
}

// GenerateTrace produces a deterministic churn scenario over the base
// workload: a mix of task-batch arrivals (the bulk), machine speed
// changes, joins, and leaves, spread over ticks with small random gaps
// (so some ticks carry several events). Event payloads mirror the base
// generator's distributions — arriving tasks draw range-based
// heterogeneous execution rows, joining machines draw link coefficients
// around the base workload's derived mean — so the amended problem stays
// statistically indistinguishable from a freshly generated one of the
// same size.
//
// The generator tracks the evolving shape (task count, machine count,
// departed set) so every event is self-consistent: exec rows always
// match the machine count at their tick, producers always reference
// known tasks, and leaves never remove the second-to-last serving
// machine.
func GenerateTrace(p TraceParams) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	base, err := workload.Generate(p.Base)
	if err != nil {
		return nil, err
	}
	bp := p.Base
	if bp.TaskRange == 0 {
		bp.TaskRange = 4
	}
	if bp.Scale == 0 {
		bp.Scale = 100
	}

	// Mean per-size transfer coefficient of the base workload, the
	// anchor for joining machines' link draws.
	meanCoeff := 0.0
	if n := base.Graph.NumItems(); n > 0 && bp.Machines > 1 {
		trm := base.System.TransferMatrix()
		sum, cnt := 0.0, 0
		for pi := range trm {
			for d, it := range base.Graph.Items() {
				sum += trm[pi][d] / it.Size
				cnt++
			}
		}
		meanCoeff = sum / float64(cnt)
	}

	rng := rand.New(rand.NewSource(p.Seed))
	uniform := func(lo, hi float64) float64 {
		if hi <= lo {
			return lo
		}
		return lo + rng.Float64()*(hi-lo)
	}
	execEntry := func() float64 {
		return bp.Scale * uniform(1, bp.TaskRange) * uniform(1, bp.Heterogeneity)
	}

	tasks := bp.Tasks
	machines := bp.Machines
	departed := make(map[int]bool)

	tr := &Trace{
		Name: fmt.Sprintf("%s-trace-e%d-seed%d", base.Name, p.Events, p.Seed),
		Seed: p.Seed,
		Base: p.Base,
	}
	tick := 0
	for i := 0; i < p.Events; i++ {
		tick += rng.Intn(4) // 0–3: some ticks carry several events
		if i == 0 && tick == 0 {
			tick = 1 // leave tick 0 to the undisturbed warm-up
		}
		var ev Event
		switch roll := rng.Float64(); {
		case roll < 0.60: // task batch arrival
			ev = Event{Tick: tick, Kind: KindTaskArrival}
			batch := 1 + rng.Intn(3)
			for b := 0; b < batch; b++ {
				ts := TaskSpec{Exec: make([]float64, machines)}
				for m := range ts.Exec {
					ts.Exec[m] = execEntry()
				}
				deps := 1 + rng.Intn(2)
				for d := 0; d < deps; d++ {
					ts.Deps = append(ts.Deps, Dep{
						Producer: rng.Intn(tasks + b),
						Size:     0.5 + rng.Float64(),
					})
				}
				ev.Tasks = append(ev.Tasks, ts)
			}
			tasks += batch
		case roll < 0.75: // speed degradation or recovery
			ev = Event{Tick: tick, Kind: KindMachineSpeed, Machine: rng.Intn(machines), Factor: 2}
			if rng.Float64() < 0.5 {
				ev.Factor = 0.5
			}
		case roll < 0.90 || machines-len(departed) <= 2: // machine join
			ev = Event{Tick: tick, Kind: KindMachineJoin, Exec: make([]float64, tasks), Links: make([]float64, machines)}
			for t := range ev.Exec {
				ev.Exec[t] = execEntry()
			}
			for m := range ev.Links {
				ev.Links[m] = meanCoeff * (0.5 + rng.Float64())
			}
			machines++
		default: // machine leave; guarded above to keep ≥ 2 serving
			m := rng.Intn(machines)
			for departed[m] {
				m = (m + 1) % machines
			}
			departed[m] = true
			ev = Event{Tick: tick, Kind: KindMachineLeave, Machine: m}
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, nil
}

// EncodeTrace writes tr as indented JSON.
func EncodeTrace(w io.Writer, tr *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// DecodeTrace reads a trace written by EncodeTrace (or hand-authored in
// the same schema) and validates its structure. Per-event payloads are
// validated during replay, against the problem shape at their tick.
func DecodeTrace(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("live: decode trace: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &tr, nil
}
