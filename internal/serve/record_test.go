package serve

// Revival keeps the stored best as is. These tests park sessions through
// the durable store — the only park path — and compare the decoded
// records the spills leave behind.

import (
	"testing"

	"repro/internal/schedule"
	"repro/internal/store"
	"repro/internal/workload"
)

// recordParams is the 24-task test workload of the external tests.
func recordParams(seed int64) workload.Params {
	return workload.Params{
		Tasks: 24, Machines: 5, Connectivity: 2.5, Heterogeneity: 6, CCR: 0.5, Seed: seed,
	}
}

// openRecordStore opens a store in a temporary directory, closed after
// the test's managers.
func openRecordStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// storedRecord decodes the store's latest record for id.
func storedRecord(t *testing.T, st *store.Store, id string) sessionRecord {
	t.Helper()
	data, ok := st.Get(id)
	if !ok {
		t.Fatalf("no stored record for session %s", id)
	}
	rec, err := decodeSessionRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// createRecordSession creates a session on m from recordParams(seed).
func createRecordSession(t *testing.T, m *Manager, seed int64) SessionInfo {
	t.Helper()
	p := recordParams(seed)
	info, err := m.Create(CreateSessionRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestSpillReviveKeepsTiedBest: a committed move that leaves the makespan
// unchanged moves the base off the best string while the two tie. A
// spill, revive and second spill through the store must hand back the
// same best string, not the base's.
func TestSpillReviveKeepsTiedBest(t *testing.T) {
	st := openRecordStore(t)
	m := NewManager(Options{MaxSessions: 1, Store: st})
	defer m.Close()
	info := createRecordSession(t, m, 31)
	sched, err := m.Schedule(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Commit the first makespan-neutral move that changes the string.
	committed := false
	for idx := 0; idx < info.Tasks && !committed; idx++ {
		for to := 0; to < info.Tasks && !committed; to++ {
			for mach := 0; mach < info.Machines && !committed; mach++ {
				req := MoveRequest{Index: idx, To: to, Machine: mach}
				probe, err := m.Move(info.ID, req)
				if err != nil || probe.Makespan != sched.Makespan {
					continue
				}
				req.Commit = true
				if _, err := m.Move(info.ID, req); err != nil {
					t.Fatal(err)
				}
				after, err := m.Schedule(info.ID)
				if err != nil {
					t.Fatal(err)
				}
				committed = after.Solution != sched.Solution
			}
		}
	}
	if !committed {
		t.Fatal("no makespan-neutral move changes the base — test premise broken")
	}

	// At cap 1, creating a session spills the live one.
	createRecordSession(t, m, 32)
	first := storedRecord(t, st, info.ID)
	if first.Best == first.Base {
		t.Fatal("best tracked the tied base — test premise broken")
	}
	// A request revives it (spilling the other); a third session spills
	// it again.
	if _, err := m.Info(info.ID); err != nil {
		t.Fatal(err)
	}
	createRecordSession(t, m, 33)
	second := storedRecord(t, st, info.ID)
	if second.Best != first.Best {
		t.Errorf("spill/revive replaced the tied best %s with %s", first.Best, second.Best)
	}
}

// TestReviveKeepsBestWorseThanBase: a live amendment splices the base and
// the best independently, so a session's best can be longer than its
// base. Revival from the store must restore the stored best as is, not
// fall back to the base, or a revived session diverges from a
// never-spilled one.
func TestReviveKeepsBestWorseThanBase(t *testing.T) {
	st := openRecordStore(t)
	m := NewManager(Options{Store: st})
	defer m.Close()
	info := createRecordSession(t, m, 32)
	w := workload.MustGenerate(recordParams(32))

	// Everything on machine 0 in topological order: valid, and longer than
	// the constructive base.
	worse := make(schedule.String, 0, w.Graph.NumTasks())
	for _, task := range w.Graph.TopoOrder() {
		worse = append(worse, schedule.Gene{Task: task})
	}
	worseMs := schedule.NewEvaluator(w.Graph, w.System).Makespan(worse)
	if worseMs <= info.BaseMakespan {
		t.Fatalf("crafted best %v not worse than base %v — test premise broken", worseMs, info.BaseMakespan)
	}
	// Craft the record: the session's own encoding with its best swapped
	// for the worse string, stored under an id that is not live.
	var crafted []byte
	if err := m.do(info.ID, func(s *Session) error {
		s.best = worse
		var err error
		crafted, err = s.record()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	const id = "s99"
	st.Put(id, crafted)

	revived, err := m.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if revived.BestMakespan != worseMs {
		t.Errorf("revived best makespan %v, want the stored best's %v", revived.BestMakespan, worseMs)
	}
	if got := storedRecord(t, st, id).Best; got != worse.Format() {
		t.Errorf("revival replaced the stored best %s with %s", worse.Format(), got)
	}
}
