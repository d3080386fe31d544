package live

import (
	"fmt"
	"slices"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// Problem is the mutable counterpart of a workload.Workload: the raw
// model (task names, data items, execution and transfer matrices) plus
// the derived immutable Graph/System pair, amended event by event. It is
// the state a live scheduling session owns beside its search engine.
//
// Every amendment is expressed so the current matrices are the complete
// state: speed changes are multiplicative, departed machines keep a
// penalized row, and join links arrive as coefficients that expand into
// concrete transfer rows. A Problem rebuilt from its own Workload()
// document (NewProblem(Decode(Encode(w)))) therefore continues
// identically — the property the serving layer's spill/revive path and
// crash recovery rely on.
type Problem struct {
	names []string
	items []taskgraph.DataItem
	exec  [][]float64 // [machine][task]
	tr    [][]float64 // [pairIdx][item], PairIndex ordering
	coeff []float64   // [pairIdx] per-size transfer coefficient for new items

	name   string
	params workload.Params

	g   *taskgraph.Graph
	sys *platform.System
	w   *workload.Workload
}

// NewProblem wraps w for amendment. The workload's matrices are deep-
// copied; w itself is retained as the initial Workload() value and never
// mutated.
//
// Transfer-time coefficients for data items that arrive later are
// derived from the existing matrix as the per-pair mean of
// transfer/size. For generated workloads the ratio is constant per pair
// (transfer = size × link × c), so the derivation is exact; for
// hand-authored matrices it is the documented approximation. A workload
// with no data items has nothing to derive from and prices new items'
// transfers at zero.
func NewProblem(w *workload.Workload) *Problem {
	g, sys := w.Graph, w.System
	p := &Problem{
		items:  append([]taskgraph.DataItem(nil), g.Items()...),
		exec:   sys.ExecMatrix(),
		tr:     sys.TransferMatrix(),
		name:   w.Name,
		params: w.Params,
		g:      g,
		sys:    sys,
		w:      w,
	}
	for t := 0; t < g.NumTasks(); t++ {
		p.names = append(p.names, g.Name(taskgraph.TaskID(t)))
	}
	l := sys.NumMachines()
	if p.tr == nil && l > 1 {
		p.tr = make([][]float64, l*(l-1)/2)
	}
	p.deriveCoeff()
	return p
}

// deriveCoeff rederives the per-pair transfer coefficients from the
// current (transfer, items) state: coeff[pi] = tr[pi][0] / size_0, the
// first item being the canonical probe. For generated workloads the
// transfer/size ratio is constant per pair, so any probe is exact. The
// derivation being a pure function of state that workload.Encode writes
// is what makes amendment continue bit-identically across spill/revive —
// a revived Problem rederives the very same coefficients.
func (p *Problem) deriveCoeff() {
	p.coeff = make([]float64, len(p.tr))
	if len(p.items) == 0 {
		return
	}
	for pi := range p.tr {
		p.coeff[pi] = p.tr[pi][0] / p.items[0].Size
	}
}

// isDeparted reports whether machine m has left the suite, derived from
// the execution matrix alone (every entry carries LeavePenalty): state
// that must survive a round-trip through the workload document lives in
// the matrices, never beside them.
func (p *Problem) isDeparted(m int) bool {
	for _, v := range p.exec[m] {
		if v < LeavePenalty {
			return false
		}
	}
	return len(p.exec[m]) > 0
}

// Graph returns the current (amended) task graph.
func (p *Problem) Graph() *taskgraph.Graph { return p.g }

// System returns the current (amended) platform.
func (p *Problem) System() *platform.System { return p.sys }

// Workload returns the current problem as a workload — encodable with
// workload.Encode into a document that round-trips through NewProblem.
func (p *Problem) Workload() *workload.Workload { return p.w }

// pairIdx is platform.System.PairIndex for machine count l: the row of
// unordered pair {a,b} under the ordering (0,1), (0,2), …, (1,2), ….
func pairIdx(l, a, b int) int {
	if a > b {
		a, b = b, a
	}
	return a*(2*l-a-1)/2 + (b - a - 1)
}

// Splice maps a solution string valid on the pre-amendment problem onto
// the amended one. Apply returns one per event; both the current and the
// best string of a live search go through the same splice.
type Splice func(schedule.String) schedule.String

// identity is the splice of amendments that leave every existing gene
// valid (joins, speed changes): strings pass through by clone, so the
// caller always owns what it feeds to a rebase.
func identity(s schedule.String) schedule.String { return s.Clone() }

// Apply amends the problem by ev and returns the splice that carries
// pre-amendment solution strings over. The amendment is built on a copy
// of the model and committed only once the amended problem rebuilds, so a
// returned error leaves the problem unchanged.
func (p *Problem) Apply(ev Event) (Splice, error) {
	next := p.clone()
	splice, err := next.apply(ev)
	if err != nil {
		return nil, err
	}
	*p = *next
	return splice, nil
}

// apply amends p in place; Apply runs it on a clone.
func (p *Problem) apply(ev Event) (Splice, error) {
	switch ev.Kind {
	case KindTaskArrival:
		return p.applyArrival(ev)
	case KindMachineJoin:
		return p.applyJoin(ev)
	case KindMachineLeave:
		return p.applyLeave(ev)
	case KindMachineSpeed:
		return p.applySpeed(ev)
	default:
		return nil, fmt.Errorf("live: apply: unknown event kind %q", ev.Kind)
	}
}

// clone deep-copies the problem's raw model; the derived Graph/System/
// Workload triple is immutable and shared.
func (p *Problem) clone() *Problem {
	c := *p
	c.names = slices.Clone(p.names)
	c.items = slices.Clone(p.items)
	c.exec = cloneRows(p.exec)
	c.tr = cloneRows(p.tr)
	c.coeff = slices.Clone(p.coeff)
	return &c
}

func cloneRows(m [][]float64) [][]float64 {
	if m == nil {
		return nil
	}
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = slices.Clone(row)
	}
	return out
}

func (p *Problem) applyArrival(ev Event) (Splice, error) {
	if len(ev.Tasks) == 0 {
		return nil, fmt.Errorf("live: %s: empty batch", ev.Kind)
	}
	l := len(p.exec)
	prev := len(p.names)
	for i, ts := range ev.Tasks {
		id := prev + i
		if len(ts.Exec) != l {
			return nil, fmt.Errorf("live: %s: task %d: exec row has %d entries, want %d machines", ev.Kind, i, len(ts.Exec), l)
		}
		for m, v := range ts.Exec {
			if v <= 0 {
				return nil, fmt.Errorf("live: %s: task %d: exec[%d] = %v, want > 0", ev.Kind, i, m, v)
			}
		}
		for j, d := range ts.Deps {
			if d.Producer < 0 || d.Producer >= id {
				return nil, fmt.Errorf("live: %s: task %d: dep %d: producer %d is not an already-known task (< %d)", ev.Kind, i, j, d.Producer, id)
			}
			if d.Size <= 0 {
				return nil, fmt.Errorf("live: %s: task %d: dep %d: size %v, want > 0", ev.Kind, i, j, d.Size)
			}
		}
	}

	// Arriving tasks carry raw execution rows; entries for departed
	// machines take the same penalty the departure stamped on the rest of
	// the row, so a new task's best-matching machine is never a departed
	// one.
	departed := make([]bool, l)
	for m := 0; m < l; m++ {
		departed[m] = p.isDeparted(m)
	}
	for i, ts := range ev.Tasks {
		id := prev + i
		name := ts.Name
		if name == "" {
			name = fmt.Sprintf("s%d", id)
		}
		p.names = append(p.names, name)
		for m := 0; m < l; m++ {
			e := ts.Exec[m]
			if departed[m] {
				e *= LeavePenalty
			}
			p.exec[m] = append(p.exec[m], e)
		}
		for _, d := range ts.Deps {
			it := taskgraph.DataItem{
				ID:       taskgraph.ItemID(len(p.items)),
				Producer: taskgraph.TaskID(d.Producer),
				Consumer: taskgraph.TaskID(id),
				Size:     d.Size,
			}
			p.items = append(p.items, it)
			// Price the new item's transfers from the derived per-pair
			// coefficients.
			for pi := range p.tr {
				p.tr[pi] = append(p.tr[pi], d.Size*p.coeff[pi])
			}
		}
	}
	p.deriveCoeff()
	if err := p.rebuild(); err != nil {
		return nil, err
	}

	g, sys := p.g, p.sys
	return func(s schedule.String) schedule.String {
		out := make(schedule.String, 0, len(s)+len(ev.Tasks))
		out = append(out, s...)
		// New tasks go to their best-matching machine at the string's
		// end: every dependency is an earlier task, so appending in ID
		// order is already precedence-valid — Repair is the safety net
		// for strings that arrive invalid.
		for t := prev; t < prev+len(ev.Tasks); t++ {
			out = append(out, schedule.Gene{Task: taskgraph.TaskID(t), Machine: sys.BestMachine(taskgraph.TaskID(t))})
		}
		return schedule.Repair(g, out)
	}, nil
}

func (p *Problem) applyJoin(ev Event) (Splice, error) {
	l := len(p.exec)
	if len(ev.Exec) != len(p.names) {
		return nil, fmt.Errorf("live: %s: exec row has %d entries, want %d tasks", ev.Kind, len(ev.Exec), len(p.names))
	}
	for t, v := range ev.Exec {
		if v <= 0 {
			return nil, fmt.Errorf("live: %s: exec[%d] = %v, want > 0", ev.Kind, t, v)
		}
	}
	if len(ev.Links) != l {
		return nil, fmt.Errorf("live: %s: links has %d entries, want %d existing machines", ev.Kind, len(ev.Links), l)
	}
	for m, v := range ev.Links {
		if v < 0 {
			return nil, fmt.Errorf("live: %s: links[%d] = %v, want >= 0", ev.Kind, m, v)
		}
	}

	p.exec = append(p.exec, append([]float64(nil), ev.Exec...))
	// Remap the pair-indexed rows to the grown machine count: old pairs
	// keep their values at new indices; pairs {a, l} price item d at
	// size_d × Links[a].
	nl := l + 1
	ntr := make([][]float64, nl*(nl-1)/2)
	for a := 0; a < l; a++ {
		for b := a + 1; b < l; b++ {
			ntr[pairIdx(nl, a, b)] = p.tr[pairIdx(l, a, b)]
		}
		row := make([]float64, len(p.items))
		for d, it := range p.items {
			row[d] = it.Size * ev.Links[a]
		}
		ntr[pairIdx(nl, a, l)] = row
	}
	p.tr = ntr
	p.deriveCoeff()
	if err := p.rebuild(); err != nil {
		return nil, err
	}
	return identity, nil
}

func (p *Problem) applyLeave(ev Event) (Splice, error) {
	if ev.Machine < 0 || ev.Machine >= len(p.exec) {
		return nil, fmt.Errorf("live: %s: machine %d out of range [0,%d)", ev.Kind, ev.Machine, len(p.exec))
	}
	for t := range p.exec[ev.Machine] {
		p.exec[ev.Machine][t] *= LeavePenalty
	}
	if err := p.rebuild(); err != nil {
		return nil, err
	}
	m := taskgraph.MachineID(ev.Machine)
	sys := p.sys
	return func(s schedule.String) schedule.String {
		out := s.Clone()
		// Reassign the departed machine's genes to each task's
		// best-matching surviving machine; the penalized row guarantees
		// BestMachine never answers the departed one (unless every
		// machine has departed, when the penalty makes the choice moot).
		// Machine-only changes preserve topological validity.
		for i := range out {
			if out[i].Machine == m {
				out[i].Machine = sys.BestMachine(out[i].Task)
			}
		}
		return out
	}, nil
}

func (p *Problem) applySpeed(ev Event) (Splice, error) {
	if ev.Machine < 0 || ev.Machine >= len(p.exec) {
		return nil, fmt.Errorf("live: %s: machine %d out of range [0,%d)", ev.Kind, ev.Machine, len(p.exec))
	}
	if ev.Factor <= 0 {
		return nil, fmt.Errorf("live: %s: factor %v, want > 0", ev.Kind, ev.Factor)
	}
	for t := range p.exec[ev.Machine] {
		p.exec[ev.Machine][t] *= ev.Factor
	}
	if err := p.rebuild(); err != nil {
		return nil, err
	}
	return identity, nil
}

// rebuild rederives the immutable Graph/System/Workload triple from the
// raw model. Apply validates each event's own fields first; what only the
// amended whole can show — costs that overflow to infinity or underflow
// to zero — surfaces here, from platform.New.
func (p *Problem) rebuild() error {
	b := taskgraph.NewBuilder(len(p.names))
	for _, name := range p.names {
		b.AddTask(name)
	}
	for _, it := range p.items {
		b.AddItem(it.Producer, it.Consumer, it.Size)
	}
	g, err := b.Build()
	if err != nil {
		return fmt.Errorf("live: rebuild: %w", err)
	}
	var tr [][]float64
	if g.NumItems() > 0 {
		tr = p.tr
	}
	sys, err := platform.New(g.NumTasks(), g.NumItems(), p.exec, tr)
	if err != nil {
		return fmt.Errorf("live: rebuild: %w", err)
	}
	p.g, p.sys = g, sys
	p.w = &workload.Workload{Name: p.name, Params: p.params, Graph: g, System: sys}
	return nil
}
