package schedule

import (
	"math/rand"
	"testing"

	"repro/internal/taskgraph"
)

func TestParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		machines := 1 + rng.Intn(8)
		perm := rng.Perm(n)
		s := make(String, n)
		for i, p := range perm {
			s[i] = Gene{Task: taskgraph.TaskID(p), Machine: taskgraph.MachineID(rng.Intn(machines))}
		}
		got, err := Parse(s.Format())
		if err != nil {
			t.Fatalf("Parse(Format()): %v", err)
		}
		if len(got) != len(s) {
			t.Fatalf("round trip changed length: %d vs %d", len(got), len(s))
		}
		for i := range s {
			if got[i] != s[i] {
				t.Fatalf("round trip changed gene %d: %v vs %v", i, got[i], s[i])
			}
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"   ",
		"s0",
		"s0 m0 | s1",
		"s0 m0 extra | s1 m1",
		"t0 m0",
		"s0 x0",
		"sX m0",
		"s0 m1.5",
		"s-1 m0",
		"s0 m-2",
		"s0x m0",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", bad)
		}
	}
}

func TestParseAcceptsFormatLayout(t *testing.T) {
	s, err := Parse("s0 m0 | s2 m1 | s1 m0")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := String{
		{Task: 0, Machine: 0},
		{Task: 2, Machine: 1},
		{Task: 1, Machine: 0},
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("gene %d = %v, want %v", i, s[i], want[i])
		}
	}
}

// FuzzParse feeds arbitrary text to Parse, the wire decoder of solution
// strings. It must never panic, and a string it accepts must come back
// unchanged through Format and Parse.
func FuzzParse(f *testing.F) {
	for _, text := range []string{
		"s0 m0 | s1 m1 | s2 m0",
		" s12  m3 |s4 m0 ",
		"s0 m0 || s1 m1",
		"s-1 m0",
		"s+7 m007",
		"s99999999999999999999 m0",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		back, err := Parse(s.Format())
		if err != nil {
			t.Fatalf("Parse(%q) = %v, but Parse(Format) fails: %v", text, s, err)
		}
		if len(back) != len(s) {
			t.Fatalf("Parse(Format(%v)) has %d genes, want %d", s, len(back), len(s))
		}
		for i := range s {
			if back[i] != s[i] {
				t.Fatalf("Parse(Format(%v))[%d] = %+v, want %+v", s, i, back[i], s[i])
			}
		}
	})
}
