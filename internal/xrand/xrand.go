// Package xrand wraps math/rand's generator in a draw-counting source so
// search engines can snapshot and restore their random streams exactly.
//
// The resumable-search engines (core, sa, tabu, ga) must encode their
// complete state, including the position of the random stream, so that a
// restored search continues bit-identically to an uninterrupted one.
// math/rand's Source is not serializable, but it is deterministic: its
// state after n draws is a pure function of (seed, n). Source exploits
// that — it passes every draw through to a rand.NewSource stream (so the
// values are bit-identical to the pre-resumable engines) while counting
// draws; a snapshot records (seed, n), and a restore replays n draws to
// rebuild the exact stream position. Replay costs a few nanoseconds per
// draw, so restore time grows with the session's age: on a 2-vCPU Xeon
// guest, restoring the small preset took about 20 µs after 3 steps for
// both se and sa, but 2.1–2.5 ms after 20,000 se steps and 8–9 ms after
// 20,000 sa temperature blocks.
package xrand

import (
	"math/rand"

	"repro/internal/snap"
)

// Source is a counting, restorable rand.Source64. It is not safe for
// concurrent use, matching math/rand.Rand's own contract.
type Source struct {
	seed int64
	n    uint64
	// src is the live math/rand stream; nil for a Source from ReadSnap or
	// Copy until Rand builds it at the recorded position.
	src rand.Source64
}

// NewSource returns a Source seeded like rand.NewSource(seed): the values
// drawn are bit-identical to math/rand's own stream.
func NewSource(seed int64) *Source {
	return &Source{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// Rand returns a *rand.Rand drawing from s. Its stream is bit-identical
// to rand.New(rand.NewSource(seed)) advanced past the draws s has counted:
// every Rand method consumes draws only through the source, one source
// draw per rejection-sampling round, and the wrapper adds none of its own.
// A Source from ReadSnap or Copy holds only its position until its first
// Rand call, which seeds the stream and replays the counted draws; a
// restore therefore pays for the replay only once it builds the engine.
func (s *Source) Rand() *rand.Rand {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
		for i := uint64(0); i < s.n; i++ {
			s.src.Uint64()
		}
	}
	return rand.New(s)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	s.n++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

// Seed implements rand.Source, resetting the draw count.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.n = 0
	s.src = rand.NewSource(seed).(rand.Source64)
}

// Copy returns a Source at s's position that shares no state with it; like
// a ReadSnap result, it builds its stream on its first Rand call.
func (s *Source) Copy() *Source { return &Source{seed: s.seed, n: s.n} }

// AppendSnap writes the stream position — seed, then draw count — as the
// rng field every engine snapshot shares.
func (s *Source) AppendSnap(w *snap.Writer) {
	w.I64(s.seed)
	w.U64(s.n)
}

// ReadSnap decodes an AppendSnap field into a Source at that position.
// Structural corruption latches the reader's error.
func ReadSnap(r *snap.Reader) *Source {
	seed := r.I64()
	return &Source{seed: seed, n: r.U64()}
}
