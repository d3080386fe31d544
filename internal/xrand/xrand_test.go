package xrand_test

import (
	"math/rand"
	"testing"

	"repro/internal/snap"
	"repro/internal/xrand"
)

// The counting wrapper must not change the stream: engines switched from
// rand.NewSource to xrand must keep every historical result bit-identical.
func TestStreamMatchesMathRand(t *testing.T) {
	want := rand.New(rand.NewSource(42))
	got := xrand.NewSource(42).Rand()
	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("draw %d: Int63 = %d, want %d", i, g, w)
			}
		case 1:
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("draw %d: Float64 = %v, want %v", i, g, w)
			}
		case 2:
			if g, w := got.Intn(17), want.Intn(17); g != w {
				t.Fatalf("draw %d: Intn = %d, want %d", i, g, w)
			}
		case 3:
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("draw %d: Uint64 = %d, want %d", i, g, w)
			}
		}
	}
}

// position round-trips src through its snapshot field and returns the
// (seed, draw count) pair it encodes, plus the decoded Source.
func position(t *testing.T, src *xrand.Source) (int64, uint64, *xrand.Source) {
	t.Helper()
	w := snap.NewWriter("TEST", 1)
	src.AppendSnap(w)
	r, err := snap.NewReader(w.Bytes(), "TEST", 1)
	if err != nil {
		t.Fatal(err)
	}
	seed, n := r.I64(), r.U64()
	if r, err = snap.NewReader(w.Bytes(), "TEST", 1); err != nil {
		t.Fatal(err)
	}
	decoded := xrand.ReadSnap(r)
	if err := r.Done(); err != nil {
		t.Fatalf("ReadSnap: %v", err)
	}
	return seed, n, decoded
}

// Restoring from the snapshot field must continue the stream exactly
// where the snapshotted source left off, across every Rand method class —
// including the rejection-sampled ones (Intn on non-power-of-two bounds,
// Perm), whose source consumption varies per call. A Copy continues the
// same way and leaves the original untouched.
func TestSnapshotRestoreContinuesExactly(t *testing.T) {
	for _, cut := range []int{0, 1, 7, 100, 333} {
		src := xrand.NewSource(7)
		orig := src.Rand()
		draw := func(r *rand.Rand, i int) any {
			switch i % 5 {
			case 0:
				return r.Int63()
			case 1:
				return r.Float64()
			case 2:
				return r.Intn(1000)
			case 3:
				return r.Uint64()
			default:
				p := r.Perm(5)
				return [5]int{p[0], p[1], p[2], p[3], p[4]}
			}
		}
		for i := 0; i < cut; i++ {
			draw(orig, i)
		}
		_, n, decoded := position(t, src)
		restored := decoded.Rand()
		if _, rn, _ := position(t, decoded); rn != n {
			t.Fatalf("cut %d: restored count = %d, want %d", cut, rn, n)
		}
		copied := src.Copy().Rand()
		for i := cut; i < cut+200; i++ {
			w := draw(orig, i)
			if g := draw(restored, i); g != w {
				t.Fatalf("cut %d, draw %d: restored %v, original %v", cut, i, g, w)
			}
			if g := draw(copied, i); g != w {
				t.Fatalf("cut %d, draw %d: copy %v, original %v", cut, i, g, w)
			}
		}
	}
}

func TestSeedResetsCount(t *testing.T) {
	src := xrand.NewSource(1)
	src.Int63()
	src.Uint64()
	if _, n, _ := position(t, src); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
	src.Seed(5)
	if seed, n, _ := position(t, src); seed != 5 || n != 0 {
		t.Fatalf("after Seed(5): (%d, %d), want (5, 0)", seed, n)
	}
}
