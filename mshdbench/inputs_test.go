package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/live"
	"repro/internal/schedule"
	"repro/internal/workload"
)

var testWorkloads = []string{"search-heavy", "serve-mix", "dist-2w"}

func TestPlanDeterministicPerSeed(t *testing.T) {
	for _, name := range testWorkloads {
		a, err := newPlan(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans of seed 7 differ", name)
		}
	}
}

func TestPlanSeedSensitive(t *testing.T) {
	for _, name := range testWorkloads {
		a, err := newPlan(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(name, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Sessions {
			if bytes.Equal(a.Sessions[i].Doc, b.Sessions[i].Doc) {
				t.Errorf("%s: session %d has the same workload under seeds 1 and 2", name, i)
			}
			if a.Sessions[i].Seed == b.Sessions[i].Seed {
				t.Errorf("%s: session %d has the same search seed under seeds 1 and 2", name, i)
			}
		}
		if a.Durable && reflect.DeepEqual(a.Conns, b.Conns) {
			t.Errorf("%s: seeds 1 and 2 generate the same op mix", name)
		}
	}
}

func TestPlanSizeFollowsSeconds(t *testing.T) {
	for _, name := range testWorkloads {
		a, _ := newPlan(name, 1, 1)
		b, _ := newPlan(name, 1, 3)
		if b.ops() <= a.ops() {
			t.Errorf("%s: %d ops at 3 s, %d at 1 s", name, b.ops(), a.ops())
		}
	}
	if _, err := newPlan("search-heavy", 1, 0); err == nil {
		t.Error("seconds 0 accepted")
	}
	if _, err := newPlan("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestOneConnectionOwnsEachSessionsWrites pins the rule that makes
// serve-mix results a function of the seed: a session's writes and move
// queries come only from its owning connection, and its trace events are
// sent in trace order.
func TestOneConnectionOwnsEachSessionsWrites(t *testing.T) {
	p, err := newPlan("serve-mix", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[int]bool{}
	reads := map[int]map[int]bool{} // session → connections that read it
	for c, ops := range p.Conns {
		next := map[int]int{}
		for j, o := range ops {
			s := p.Sessions[o.Session]
			owners[s.Owner] = true
			if o.Kind.owned() && s.Owner != c {
				t.Fatalf("conn %d op %d: %s of session %d, owned by conn %d", c, j, o.Kind, o.Session, s.Owner)
			}
			if o.Kind == opEvent {
				if o.Event != next[o.Session] {
					t.Fatalf("conn %d op %d: event %d of session %d, want %d", c, j, o.Event, o.Session, next[o.Session])
				}
				next[o.Session]++
			}
			if !o.Kind.owned() {
				if reads[o.Session] == nil {
					reads[o.Session] = map[int]bool{}
				}
				reads[o.Session][c] = true
			}
		}
	}
	if len(owners) != len(p.Conns) {
		t.Errorf("sessions owned by %d connections, want %d", len(owners), len(p.Conns))
	}
	shared := 0
	for _, cs := range reads {
		if len(cs) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no session is read from both connections")
	}
}

// TestPlannedMovesValidOnEveryVersion replays each serve-mix session's
// events in owner order and checks that every planned move names a live
// gene and a serving machine, and keeps the gene within its valid range.
func TestPlannedMovesValidOnEveryVersion(t *testing.T) {
	p, err := newPlan("serve-mix", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range p.Sessions {
		w, err := workload.Decode(bytes.NewReader(s.Doc))
		if err != nil {
			t.Fatal(err)
		}
		pr := live.NewProblem(w)
		departed := map[int]bool{}
		for _, o := range p.Conns[s.Owner] {
			if o.Session != i {
				continue
			}
			switch o.Kind {
			case opEvent:
				ev := s.Events[o.Event]
				if _, err := pr.Apply(ev); err != nil {
					t.Fatalf("session %d event %d: %v", i, o.Event, err)
				}
				if ev.Kind == live.KindMachineLeave {
					departed[ev.Machine] = true
				}
			case opMove, opCommit:
				g, sys := pr.Graph(), pr.System()
				m := o.Move
				if m.Index < 0 || m.Index >= g.NumTasks() || m.Machine < 0 || m.Machine >= sys.NumMachines() || departed[m.Machine] {
					t.Fatalf("session %d: move %+v on %d tasks, %d machines, departed %v", i, m, g.NumTasks(), sys.NumMachines(), departed)
				}
				if m.To != m.Index {
					t.Fatalf("session %d: move %+v changes position", i, m)
				}
			}
		}
	}
	// A gene's own position is inside its valid range on any valid string.
	w, _ := workload.Decode(bytes.NewReader(p.Sessions[0].Doc))
	base := heuristics.Best(w.Graph, w.System, 1).Solution
	pos := make([]int, len(base))
	base.Positions(pos)
	for idx := range base {
		if lo, hi := schedule.ValidRange(w.Graph, base, pos, idx); idx < lo || idx > hi {
			t.Fatalf("gene %d outside its own valid range [%d,%d]", idx, lo, hi)
		}
	}
}
