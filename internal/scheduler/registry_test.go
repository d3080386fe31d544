package scheduler

import (
	"context"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// stubOpen and stubRestore are placeholder hooks for registration-error
// tests; they are never invoked.
func stubOpen(Config, *taskgraph.Graph, *platform.System) (Stepper, error) { return nil, nil }
func stubRestore([]byte, *taskgraph.Graph, *platform.System) (Stepper, error) {
	return nil, nil
}

func TestGetKnownNames(t *testing.T) {
	w := workload.Figure1()
	for _, name := range []string{
		"se", "se-ils", "se-shard", "ga", "sa", "tabu",
		"heft", "cpop", "minmin", "maxmin", "sufferage", "mct", "random",
	} {
		s, err := Open(name, w.Graph, w.System, WithSeed(1))
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Open(%q).Name() = %q", name, s.Name())
		}
	}
}

func TestGetUnknownName(t *testing.T) {
	w := workload.Figure1()
	_, err := Open("does-not-exist", w.Graph, w.System)
	if err == nil {
		t.Fatal("Open accepted an unknown name")
	}
	if !strings.Contains(err.Error(), "does-not-exist") || !strings.Contains(err.Error(), "se") {
		t.Errorf("error should name the bad algorithm and list registered ones: %v", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register did not panic on duplicate name")
		}
	}()
	Register("se", Metaheuristic, "dup", stubOpen, stubRestore)
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register did not panic on empty name")
		}
	}()
	Register("", Metaheuristic, "", stubOpen, stubRestore)
}

func TestRegisterNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register did not panic on nil factory")
		}
	}()
	Register("nil-factory", Metaheuristic, "", nil, nil)
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) < 13 {
		t.Fatalf("Names() = %v, want at least the 13 built-in schedulers", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Errorf("Names() not strictly sorted at %d: %v", i, names)
		}
	}
}

func TestDescribeAndInfos(t *testing.T) {
	info, ok := Describe("se")
	if !ok || info.Kind != Metaheuristic || info.Summary == "" {
		t.Errorf("Describe(se) = %+v, %v", info, ok)
	}
	info, ok = Describe("heft")
	if !ok || info.Kind != Constructive {
		t.Errorf("Describe(heft) = %+v, %v", info, ok)
	}
	if _, ok := Describe("nope"); ok {
		t.Error("Describe accepted unknown name")
	}
	infos := Infos()
	if len(infos) != len(Names()) {
		t.Fatalf("Infos() has %d entries, Names() %d", len(infos), len(Names()))
	}
	// Metaheuristics sort first.
	seen := false
	for _, info := range infos {
		if info.Kind == Constructive {
			seen = true
		} else if seen {
			t.Fatalf("Infos() interleaves kinds: %+v", infos)
		}
	}
}

func TestKindString(t *testing.T) {
	if Metaheuristic.String() != "metaheuristic" || Constructive.String() != "constructive" {
		t.Errorf("Kind strings = %q, %q", Metaheuristic, Constructive)
	}
	if s := Kind(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown Kind String = %q", s)
	}
}

func TestOptionsReachTheAlgorithm(t *testing.T) {
	// WithY(1) restricts SE allocation to each task's single best machine;
	// a different Y must change the search trajectory on a workload with
	// real heterogeneity. Equal results would mean options are dropped.
	w := workload.MustGenerate(workload.Params{
		Tasks: 30, Machines: 6, Connectivity: 2.5, Heterogeneity: 10, CCR: 0.5, Seed: 5,
	})
	run := func(opts ...Option) float64 {
		s, err := Open("se", w.Graph, w.System, opts...)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		res, err := Drive(context.Background(), s, Budget{MaxIterations: 40})
		if err != nil {
			t.Fatalf("Drive: %v", err)
		}
		return res.Makespan
	}
	narrow := run(WithSeed(1), WithY(1))
	wide := run(WithSeed(1), WithY(0))
	if narrow == wide {
		t.Errorf("Y=1 and Y=all produced identical makespans (%v); options likely ignored", narrow)
	}
}

func TestParseNames(t *testing.T) {
	names, err := ParseNames(" se, ga ,heft,")
	if err != nil {
		t.Fatalf("ParseNames: %v", err)
	}
	want := []string{"se", "ga", "heft"}
	if len(names) != len(want) {
		t.Fatalf("ParseNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("ParseNames[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if _, err := ParseNames("se,bogus"); err == nil {
		t.Error("ParseNames accepted an unknown name")
	}
	if _, err := ParseNames(" , "); err == nil {
		t.Error("ParseNames accepted an empty list")
	}
}

func TestMetaheuristicRejectsUnboundedRun(t *testing.T) {
	// An observer tap must not count as a stopping criterion: Drive over
	// an unbounded Budget with a non-cancellable context has to fail fast,
	// before the search steps.
	w := workload.MustGenerate(workload.Params{
		Tasks: 10, Machines: 3, Connectivity: 2, Heterogeneity: 4, CCR: 0.5, Seed: 1,
	})
	for _, name := range Names() {
		info, _ := Describe(name)
		if info.Kind != Metaheuristic {
			continue
		}
		s, err := Open(name, w.Graph, w.System, WithSeed(1), WithObserver(func(Progress) {
			t.Fatalf("%s: Drive stepped an unbounded run", name)
		}))
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		if _, err := Drive(context.Background(), s, Budget{}); err == nil {
			t.Errorf("%s: unbounded observed run did not error", name)
		}
	}
}

func TestParseNamesRejectsDuplicates(t *testing.T) {
	if _, err := ParseNames("se,ga,se"); err == nil {
		t.Error("ParseNames accepted a duplicated name")
	}
}
