package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestSummarizeMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := summarize(append([]float64(nil), tc.xs...)); got.Median != tc.want || got.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want median %v", tc.xs, got, tc.want)
		}
	}
	if s := summarize(nil); s.N != 0 || s.HasP99 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

// TestSummarizeP99NeedsTenBeyond pins the rule that a p99 is reported only
// with at least ten samples beyond it, which first holds at 1000 samples.
func TestSummarizeP99NeedsTenBeyond(t *testing.T) {
	for _, n := range []int{10, 100, 999} {
		if s := summarize(seq(n)); s.HasP99 {
			t.Errorf("n=%d: p99 reported (%v) with fewer than %d samples beyond it", n, s.P99, tailSamples)
		}
	}
	for _, n := range []int{1000, 1001, 5000} {
		s := summarize(seq(n))
		if !s.HasP99 {
			t.Fatalf("n=%d: p99 missing", n)
		}
		beyond := 0
		for _, x := range seq(n) {
			if x > s.P99 {
				beyond++
			}
		}
		if beyond < tailSamples {
			t.Errorf("n=%d: p99 %v has %d samples beyond it", n, s.P99, beyond)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := seq(1000) // 1..1000
	if got := nearestRank(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := nearestRank(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := nearestRank([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
}

func TestSummarizeIgnoresInputOrder(t *testing.T) {
	xs := seq(2000)
	shuffled := append([]float64(nil), xs...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if a, b := summarize(xs), summarize(shuffled); a != b {
		t.Errorf("sorted %+v, shuffled %+v", a, b)
	}
}

func TestMissingPercentileIsPrinted(t *testing.T) {
	r := &report{}
	r.missing("step_p99_ms", "ms", 80, "fewer than 10 samples beyond it")
	if len(r.lines) != 1 || !strings.Contains(r.lines[0], "missing") || !strings.Contains(r.lines[0], "n=80") {
		t.Errorf("missing line = %q", r.lines)
	}
}

// seq returns 1, 2, …, n.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestWindowRatesTileThePhase(t *testing.T) {
	// Sixty replies, one every 100 ms, except that the thirtieth arrives
	// after a 1 s stall.
	var done []time.Duration
	var ones []float64
	at := time.Duration(0)
	for i := 0; i < 5*windowOps; i++ {
		at += 100 * time.Millisecond
		if i == 2*windowOps+5 {
			at += time.Second
		}
		done = append(done, at)
		ones = append(ones, 1)
	}
	rates := windowRates(done, ones, 5)
	want := []float64{10, 10, windowOps / (0.1*windowOps + 1), 10, 10}
	if len(rates) != len(want) {
		t.Fatalf("rates = %v", rates)
	}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Errorf("window %d rate = %v, want %v", i, rates[i], want[i])
		}
	}
	if m := median(rates); m != 10 {
		t.Errorf("median rate = %v, want 10: the stall stays in its window", m)
	}
	if got := windowRates(done[:3], ones[:3], 20); len(got) != 1 {
		t.Errorf("3 replies make %d windows, want 1", len(got))
	}
	if got := windowRates(done, ones, 20); len(got) != 5 {
		t.Errorf("%d replies make %d windows, want 5 of %d", len(done), len(got), windowOps)
	}
}
