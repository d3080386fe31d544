package scheduler_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/schedule"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// stepN advances s by up to n iterations, stopping early when the search
// reports it cannot continue, and returns the number executed.
func stepN(t *testing.T, s scheduler.Search, n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, more := s.Step(context.Background()); !more {
			return i + 1
		}
	}
	return n
}

func assertSameOutcome(t *testing.T, name string, got, want scheduler.Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Errorf("%s: makespan %v != uninterrupted %v", name, got.Makespan, want.Makespan)
	}
	if len(got.Best) != len(want.Best) {
		t.Fatalf("%s: best has %d genes, uninterrupted %d", name, len(got.Best), len(want.Best))
	}
	for i := range got.Best {
		if got.Best[i] != want.Best[i] {
			t.Fatalf("%s: best strings differ at gene %d: %v vs %v", name, i, got.Best[i], want.Best[i])
		}
	}
}

// TestSnapshotResumeConformance is the registry-wide resumability
// contract: for every registered algorithm, a search snapshotted at
// iteration k, restored (as if in a fresh process) and run to the same
// total budget must produce the bit-identical final best string and
// makespan an uninterrupted search produces — and the snapshot bytes of
// equal states must themselves be equal, so snapshots can be
// content-compared.
func TestSnapshotResumeConformance(t *testing.T) {
	w := conformanceWorkload()
	const total, cut = 20, 9
	for _, name := range scheduler.Names() {
		t.Run(name, func(t *testing.T) {
			opts := []scheduler.Option{scheduler.WithSeed(7)}

			full, err := scheduler.Open(name, w.Graph, w.System, opts...)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			ranFull := stepN(t, full, total)
			want := full.Best()
			if err := schedule.Validate(want.Best, w.Graph, w.System); err != nil {
				t.Fatalf("uninterrupted best invalid: %v", err)
			}

			broken, err := scheduler.Open(name, w.Graph, w.System, opts...)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			ranBefore := stepN(t, broken, cut)
			snap1, err := broken.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			snap2, err := broken.Snapshot()
			if err != nil {
				t.Fatalf("second Snapshot: %v", err)
			}
			if !bytes.Equal(snap1, snap2) {
				t.Error("two snapshots of the same state differ — encoding is not deterministic")
			}

			restored, err := scheduler.Restore(name, snap1, w.Graph, w.System)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if restored.Name() != name {
				t.Errorf("restored Name() = %q, want %q", restored.Name(), name)
			}
			stepN(t, restored, total-ranBefore)
			assertSameOutcome(t, name, restored.Best(), want)

			// The interrupted-and-restored path must also agree with a
			// fresh search driven once under the same budget.
			res, err := openDrive(context.Background(), name, w, scheduler.Budget{MaxIterations: total}, opts...)
			if err != nil {
				t.Fatalf("Drive: %v", err)
			}
			if res.Iterations > ranFull && res.Iterations != 1 {
				t.Errorf("Drive ran %d iterations, Step loop %d", res.Iterations, ranFull)
			}
			assertSameOutcome(t, name+" (Drive)", scheduler.Result{Best: res.Best, Makespan: res.Makespan}, want)
		})
	}
}

// TestSnapshotAtEveryCut hardens the round-trip against phase-boundary
// bugs for the stateful metaheuristics: cutting at any iteration — 0
// included, before the first Step — must resume to the identical outcome.
func TestSnapshotAtEveryCut(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 16, Machines: 4, Connectivity: 2, Heterogeneity: 5, CCR: 0.6, Seed: 3,
	})
	const total = 8
	for _, name := range []string{"se", "se-ils", "se-shard", "ga", "sa", "tabu"} {
		t.Run(name, func(t *testing.T) {
			full, err := scheduler.Open(name, w.Graph, w.System, scheduler.WithSeed(5))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			stepN(t, full, total)
			want := full.Best()
			for cut := 0; cut <= total; cut++ {
				s, err := scheduler.Open(name, w.Graph, w.System, scheduler.WithSeed(5))
				if err != nil {
					t.Fatalf("cut %d: Open: %v", cut, err)
				}
				stepN(t, s, cut)
				data, err := s.Snapshot()
				if err != nil {
					t.Fatalf("cut %d: Snapshot: %v", cut, err)
				}
				restored, err := scheduler.Restore(name, data, w.Graph, w.System)
				if err != nil {
					t.Fatalf("cut %d: Restore: %v", cut, err)
				}
				stepN(t, restored, total-cut)
				got := restored.Best()
				if got.Makespan != want.Makespan {
					t.Fatalf("cut %d: makespan %v, uninterrupted %v", cut, got.Makespan, want.Makespan)
				}
				for i := range got.Best {
					if got.Best[i] != want.Best[i] {
						t.Fatalf("cut %d: best strings differ at gene %d", cut, i)
					}
				}
			}
		})
	}
}

// TestBestDoesNotPerturbSearch: reading the best-so-far mid-run is part
// of the serving workflow (status queries against a pinned Search), so it
// must not change what the search subsequently computes.
func TestBestDoesNotPerturbSearch(t *testing.T) {
	w := conformanceWorkload()
	for _, name := range []string{"se", "se-ils", "se-shard", "ga", "sa", "tabu"} {
		t.Run(name, func(t *testing.T) {
			run := func(inspect bool) scheduler.Result {
				s, err := scheduler.Open(name, w.Graph, w.System, scheduler.WithSeed(2))
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				for i := 0; i < 12; i++ {
					s.Step(context.Background())
					if inspect {
						s.Best()
					}
				}
				return s.Best()
			}
			assertSameOutcome(t, name, run(true), run(false))
		})
	}
}

// TestRestoreRejectsMismatches: snapshots replayed against the wrong
// algorithm or workload must error, not silently continue.
func TestRestoreRejectsMismatches(t *testing.T) {
	w := conformanceWorkload()
	other := workload.MustGenerate(workload.Params{
		Tasks: 10, Machines: 3, Connectivity: 2, Heterogeneity: 4, CCR: 0.5, Seed: 9,
	})
	s, err := scheduler.Open("se", w.Graph, w.System, scheduler.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, s, 3)
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if algo, err := scheduler.SnapshotAlgorithm(data); err != nil || algo != "se" {
		t.Errorf("SnapshotAlgorithm = %q, %v; want se", algo, err)
	}
	if _, err := scheduler.Restore("ga", data, w.Graph, w.System); err == nil {
		t.Error("restoring an se snapshot as ga succeeded")
	}
	if _, err := scheduler.Restore("se", data, other.Graph, other.System); err == nil {
		t.Error("restoring against a different workload succeeded")
	}
	if _, err := scheduler.Restore("nope", data, w.Graph, w.System); err == nil {
		t.Error("restoring an unregistered name succeeded")
	}
}

// FuzzRestore feeds arbitrary bytes — seeded with real snapshots of every
// registered algorithm, which the fuzzer then truncates and corrupts —
// through Restore under every registered name. The contract under attack
// is memory-safety and graceful failure: Restore must return an error or
// a functioning search, and must never panic, whatever the bytes.
func FuzzRestore(f *testing.F) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 12, Machines: 3, Connectivity: 2, Heterogeneity: 4, CCR: 0.5, Seed: 1,
	})
	for _, name := range scheduler.Names() {
		s, err := scheduler.Open(name, w.Graph, w.System, scheduler.WithSeed(4))
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s.Step(context.Background())
		}
		data, err := s.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:8])
	}
	f.Add([]byte{})
	f.Add([]byte("MSHS"))
	names := scheduler.Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range names {
			s, err := scheduler.Restore(name, data, w.Graph, w.System)
			if err != nil {
				continue
			}
			// A restore that validates must yield a search that steps and
			// reports a valid best without panicking.
			s.Step(context.Background())
			res := s.Best()
			if err := schedule.Validate(res.Best, w.Graph, w.System); err != nil {
				t.Errorf("%s: restored search produced invalid best: %v", name, err)
			}
		}
	})
}
