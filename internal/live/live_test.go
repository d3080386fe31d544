package live

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

func baseParams() workload.Params {
	return workload.Params{
		Tasks: 20, Machines: 4, Connectivity: 2, Heterogeneity: 4, CCR: 0.5, Seed: 11,
	}
}

func testTrace(t *testing.T, events int, seed int64) *Trace {
	t.Helper()
	tr, err := GenerateTrace(TraceParams{Base: baseParams(), Events: events, Seed: seed})
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	return tr
}

func TestGenerateTraceDeterministicAndValid(t *testing.T) {
	a := testTrace(t, 40, 7)
	b := testTrace(t, 40, 7)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatal("same TraceParams generated different traces")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	kinds := map[string]int{}
	for _, ev := range a.Events {
		kinds[ev.Kind]++
	}
	if kinds[KindTaskArrival] == 0 {
		t.Error("40-event trace has no task arrivals")
	}
}

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	tr := testTrace(t, 25, 3)
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	got, err := DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	aj, _ := json.Marshal(tr)
	bj, _ := json.Marshal(got)
	if !bytes.Equal(aj, bj) {
		t.Fatal("trace did not round-trip through JSON")
	}
}

func TestTraceValidateRejects(t *testing.T) {
	base := baseParams()
	for name, tr := range map[string]*Trace{
		"unknown kind":  {Base: base, Events: []Event{{Tick: 1, Kind: "explode"}}},
		"negative tick": {Base: base, Events: []Event{{Tick: -1, Kind: KindTaskArrival}}},
		"tick past cap": {Base: base, Events: []Event{{Tick: MaxTick + 1, Kind: KindTaskArrival}}},
		"largest tick":  {Base: base, Events: []Event{{Tick: math.MaxInt64, Kind: KindTaskArrival}}},
		"out of order":  {Base: base, Events: []Event{{Tick: 5, Kind: KindMachineJoin}, {Tick: 2, Kind: KindMachineLeave}}},
	} {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
	}
}

// applyAll replays every event of tr through p, splicing s along, and
// returns the final spliced string.
func applyAll(t *testing.T, p *Problem, tr *Trace, s schedule.String) schedule.String {
	t.Helper()
	for i, ev := range tr.Events {
		splice, err := p.Apply(ev)
		if err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Kind, err)
		}
		s = splice(s)
		if err := schedule.Validate(s, p.Graph(), p.System()); err != nil {
			t.Fatalf("event %d (%s): spliced string invalid: %v", i, ev.Kind, err)
		}
	}
	return s
}

func TestProblemApplyAndSplice(t *testing.T) {
	w := workload.MustGenerate(baseParams())
	p := NewProblem(w)
	tr := testTrace(t, 60, 5)
	assign := make([]taskgraph.MachineID, w.Graph.NumTasks())
	for task := range assign {
		assign[task] = w.System.BestMachine(taskgraph.TaskID(task))
	}
	base := schedule.FromOrder(w.Graph.TopoOrder(), assign)
	final := applyAll(t, p, tr, base)

	tasks, machines := w.Graph.NumTasks(), w.System.NumMachines()
	for _, ev := range tr.Events {
		switch ev.Kind {
		case KindTaskArrival:
			tasks += len(ev.Tasks)
		case KindMachineJoin:
			machines++
		}
	}
	if got := p.Graph().NumTasks(); got != tasks {
		t.Errorf("amended graph has %d tasks, want %d", got, tasks)
	}
	if got := p.System().NumMachines(); got != machines {
		t.Errorf("amended system has %d machines, want %d", got, machines)
	}
	if len(final) != tasks {
		t.Errorf("spliced string has %d genes, want %d", len(final), tasks)
	}
	// Departed machines must carry no genes after splicing.
	departed := map[taskgraph.MachineID]bool{}
	for _, ev := range tr.Events {
		if ev.Kind == KindMachineLeave {
			departed[taskgraph.MachineID(ev.Machine)] = true
		}
	}
	for i, gene := range final {
		if departed[gene.Machine] {
			t.Errorf("gene %d still assigned to departed machine %d", i, gene.Machine)
		}
	}
}

func TestApplyValidationLeavesProblemUnchanged(t *testing.T) {
	w := workload.MustGenerate(baseParams())
	p := NewProblem(w)
	before := p.Graph()
	bad := []Event{
		{Kind: KindTaskArrival},
		{Kind: KindTaskArrival, Tasks: []TaskSpec{{Exec: []float64{1}}}},                                       // wrong row length
		{Kind: KindTaskArrival, Tasks: []TaskSpec{{Exec: []float64{1, 1, 1, 1}, Deps: []Dep{{Producer: 99}}}}}, // unknown producer
		{Kind: KindMachineJoin, Exec: []float64{1}, Links: []float64{1, 1, 1, 1}},
		{Kind: KindMachineLeave, Machine: 9},
		{Kind: KindMachineSpeed, Machine: 0, Factor: 0},
		{Kind: "explode"},
	}
	for i, ev := range bad {
		if _, err := p.Apply(ev); err == nil {
			t.Errorf("bad event %d (%s) accepted", i, ev.Kind)
		}
	}
	if p.Graph() != before {
		t.Error("rejected events mutated the problem")
	}
}

// TestWorkloadRoundTripContinues is the spill/revive invariant: a
// Problem rebuilt from its own encoded Workload document continues
// identically — same graph shape, same matrices, same future splices.
func TestWorkloadRoundTripContinues(t *testing.T) {
	w := workload.MustGenerate(baseParams())
	p := NewProblem(w)
	tr := testTrace(t, 30, 9)
	half := len(tr.Events) / 2
	for i, ev := range tr.Events[:half] {
		if _, err := p.Apply(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}

	var doc bytes.Buffer
	if err := workload.Encode(&doc, p.Workload()); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	w2, err := workload.Decode(bytes.NewReader(doc.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	p2 := NewProblem(w2)

	for i, ev := range tr.Events[half:] {
		if _, err := p.Apply(ev); err != nil {
			t.Fatalf("original: event %d: %v", half+i, err)
		}
		if _, err := p2.Apply(ev); err != nil {
			t.Fatalf("revived: event %d: %v", half+i, err)
		}
	}
	var a, b bytes.Buffer
	if err := workload.Encode(&a, p.Workload()); err != nil {
		t.Fatal(err)
	}
	if err := workload.Encode(&b, p2.Workload()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("problem revived from its workload document diverged from the original")
	}
}

func TestReplayBitIdentical(t *testing.T) {
	tr := testTrace(t, 30, 2)
	opts := Options{Seed: 4, StepsPerTick: 4, TailTicks: 5}
	a, err := Replay(context.Background(), tr, opts)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	b, err := Replay(context.Background(), tr, opts)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatal("two replays of the same trace with the same options differ")
	}
	if a.FinalSolution == "" || a.FinalMakespan <= 0 {
		t.Fatalf("degenerate final outcome: makespan %v, solution %q", a.FinalMakespan, a.FinalSolution)
	}
	if a.Reschedules != len(tr.Events) {
		t.Errorf("Reschedules = %d, want %d", a.Reschedules, len(tr.Events))
	}
	if len(a.Segments) != len(tr.Events) {
		t.Errorf("Segments has %d entries, want %d", len(a.Segments), len(tr.Events))
	}
}

// TestReplayRejectsExtremeTicks: a replay's work grows with its tick span,
// so ticks and spans past MaxTick are errors, not a replay of zero ticks
// that drops the event (the largest int tick overflowed the span) or one
// that runs practically forever (tick 9.2e18).
func TestReplayRejectsExtremeTicks(t *testing.T) {
	base, err := json.Marshal(baseParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, tick := range []string{"9223372036854775807", "9200000000000000000"} {
		doc := `{"name":"x","base":` + string(base) + `,"events":[{"tick":` + tick + `,"kind":"machine_leave"}]}`
		if _, err := DecodeTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("DecodeTrace accepted an event at tick %s", tick)
		}
		var tr Trace
		if err := json.Unmarshal([]byte(doc), &tr); err != nil {
			t.Fatal(err)
		}
		if rep, err := Replay(context.Background(), &tr, Options{Seed: 1}); err == nil {
			t.Errorf("Replay of an event at tick %s succeeded: %d ticks, %d reschedules", tick, len(rep.Samples), rep.Reschedules)
		}
	}
	atCap := &Trace{Base: baseParams(), Events: []Event{{Tick: MaxTick, Kind: KindMachineLeave}}}
	if err := atCap.Validate(); err != nil {
		t.Fatalf("Validate rejected an event at MaxTick: %v", err)
	}
	for _, tail := range []int{0, 1} { // 0 selects DefaultTailTicks
		if _, err := Replay(context.Background(), atCap, Options{Seed: 1, TailTicks: tail}); err == nil {
			t.Errorf("Replay with TailTicks %d past an event at MaxTick succeeded", tail)
		}
	}
	near := &Trace{Base: baseParams(), Events: []Event{{Tick: 3, Kind: KindMachineLeave}}}
	if _, err := Replay(context.Background(), near, Options{Seed: 1, TailTicks: MaxTick - 2}); err == nil {
		t.Error("Replay whose last tick plus TailTicks passes MaxTick succeeded")
	}
	if err := (TraceParams{Base: baseParams(), Events: MaxEvents + 1}).Validate(); err == nil {
		t.Error("TraceParams.Validate accepted more than MaxEvents events")
	}
}

func TestReplayColdAblation(t *testing.T) {
	tr := testTrace(t, 12, 6)
	warm, err := Replay(context.Background(), tr, Options{Seed: 4, StepsPerTick: 4, TailTicks: 5})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	cold, err := Replay(context.Background(), tr, Options{Seed: 4, StepsPerTick: 4, TailTicks: 5, Cold: true})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if !cold.Cold || warm.Cold {
		t.Fatal("Cold flag not reflected in reports")
	}
	// Cumulative axes must be monotone even across cold restarts.
	for i := 1; i < len(cold.Samples); i++ {
		if cold.Samples[i].Evaluations < cold.Samples[i-1].Evaluations ||
			cold.Samples[i].Iterations < cold.Samples[i-1].Iterations {
			t.Fatalf("cold cumulative effort decreased at sample %d", i)
		}
	}
}

func TestReplayRejectsNonRebasable(t *testing.T) {
	tr := testTrace(t, 5, 1)
	if _, err := Replay(context.Background(), tr, Options{Algo: "ga", Seed: 1}); err == nil {
		t.Fatal("warm replay with a non-rebasable algorithm succeeded")
	}
	if _, err := Replay(context.Background(), tr, Options{Algo: "ga", Seed: 1, Cold: true, StepsPerTick: 2, TailTicks: 1}); err != nil {
		t.Fatalf("cold replay with ga failed: %v", err)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	tr := testTrace(t, 10, 8)
	rep, err := Replay(context.Background(), tr, Options{Seed: 2, StepsPerTick: 2, TailTicks: 2, Metrics: met})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got := met.reschedules.Value(); got != uint64(rep.Reschedules) {
		t.Errorf("live_reschedules_total = %d, want %d", got, rep.Reschedules)
	}
	if got := met.tasksArrived.Value(); got != uint64(rep.TasksArrived) {
		t.Errorf("live_tasks_arrived_total = %d, want %d", got, rep.TasksArrived)
	}
	// A nil Metrics must be a safe no-op.
	var none *Metrics
	none.Amended(Event{Kind: KindMachineJoin}, 0)
	none.Sampled(Sample{})
}

// TestRebasePreservesRngStream is the warm-start determinism keystone at
// the engine level: stepping an engine, rebasing it onto the same
// problem with its own solutions, and stepping on must match an
// uninterrupted run exactly.
func TestRebaseIdentityMatchesUninterrupted(t *testing.T) {
	w := workload.MustGenerate(baseParams())
	const total, cut = 30, 13

	full, err := scheduler.Open("se-live", w.Graph, w.System, scheduler.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		full.Step(context.Background())
	}
	want := full.Best()

	s, err := scheduler.Open("se-live", w.Graph, w.System, scheduler.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		s.Step(context.Background())
	}
	cur, ok := scheduler.CurrentSolution(s)
	if !ok {
		t.Fatal("se-live does not expose its current solution")
	}
	s, err = scheduler.Rebase(s, w.Graph, w.System, cur, s.Best().Best)
	if err != nil {
		t.Fatalf("Rebase: %v", err)
	}
	for i := 0; i < total-cut; i++ {
		s.Step(context.Background())
	}
	got := s.Best()
	if got.Makespan != want.Makespan {
		t.Fatalf("identity rebase diverged: makespan %v, uninterrupted %v", got.Makespan, want.Makespan)
	}
	for i := range got.Best {
		if got.Best[i] != want.Best[i] {
			t.Fatalf("identity rebase diverged at gene %d", i)
		}
	}
	if got.Iterations != want.Iterations {
		t.Errorf("iteration ledger lost in rebase: %d != %d", got.Iterations, want.Iterations)
	}
}
