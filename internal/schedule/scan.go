package schedule

import (
	"math"

	"repro/internal/taskgraph"
)

// Move is one candidate of an allocation scan: the scanned gene re-placed
// at insertion point Q (valid-range coordinates) on machines[MI] of the
// scanned machine list, with the resulting makespan and total finish time.
type Move struct {
	Makespan, Total float64
	Q, MI           int
}

// Less reports whether m ranks before o under the allocation scan's
// tie-break key (makespan, total finish time, Q, MI) — see DESIGN.md,
// "The tie-break key".
func (m Move) Less(o Move) bool {
	if m.Makespan != o.Makespan {
		return m.Makespan < o.Makespan
	}
	if m.Total != o.Total {
		return m.Total < o.Total
	}
	if m.Q != o.Q {
		return m.Q < o.Q
	}
	return m.MI < o.MI
}

// runKey is what a scan knows about one machine rank's current run: the
// insertion point of its head, and the key its last replay returned — a
// lower bound on the makespan every member shares and on that
// candidate's total, exact when the replay completed.
type runKey struct {
	ms, tot float64
	head    int
}

// Scan is SE's allocation scan (§4.5) of the gene at index idx of the
// pinned base: the gene's task re-placed at every insertion point in
// [lo, hi] (valid-range coordinates; any sub-range of the valid range)
// on each of machines, visited in ascending (q, machine rank) order. It
// returns the first candidate with the least (makespan, total) key, each
// replay bounded by the best key so far.
//
// Moving task t from insertion point q−1 to q swaps it with R[q−1], the
// gene it passes (R is the base with t removed). Inside the valid range
// that gene is neither a predecessor nor a successor of t, so when it
// runs on a machine other than t's candidate machine, every finish time
// is bit-identical and only the total, a sum in string order, can differ
// by rounding. The scan therefore replays only run heads — every machine
// at q = lo, and at a later q the machines of R[q−1] — and settles every
// other candidate, a member, from its run: it loses when its run lost on
// makespan, or on a total past the bound by more than the rounding margin
// (runKey.loses); a member of the best candidate's own run has its total
// re-summed (memberTotal); any other is replayed. The winner is the
// exhaustive scan's, bit for bit (DESIGN.md, "The run-collapsed
// allocation scan"). Inside a Reference scope every candidate is scored
// by a full pass.
//
// When every replay aborted — only possible when every finish time
// overflows to +Inf — the scan returns the first candidate, as an
// exhaustive scan of equal keys would.
func (d *DeltaEvaluator) Scan(idx, lo, hi int, machines []taskgraph.MachineID) Move {
	if cap(d.runs) < len(machines) {
		d.runs = make([]runKey, len(machines))
	}
	runs := d.runs[:len(machines)]
	// Recursive summation of n nonnegative terms errs by at most
	// γₙ₋₁ = (n−1)u/(1−(n−1)u) of their exact sum (u = 2⁻⁵³), so two
	// orders of the same finish times differ by at most about 2γₙ₋₁ of
	// either total; n·2⁻⁵¹ covers that and the rounding of the product.
	keep := 1 - float64(len(d.base))*0x1p-51
	collapse := d.ref == nil
	best := Move{Makespan: math.Inf(1), Total: math.Inf(1), Q: lo}
	found, bestHead := false, -1
	for q := lo; q <= hi; q++ {
		var passed taskgraph.MachineID
		if q > lo {
			j := q - 1 // R[q−1] in base indices
			if j >= idx {
				j++
			}
			passed = d.base[j].Machine
		}
		for mi, m := range machines {
			head := !collapse || q == lo || m == passed
			if !head {
				r := runs[mi]
				if found && r.loses(best, keep) {
					continue
				}
				if found && mi == best.MI && r.head == bestHead {
					if tot := d.memberTotal(idx, q, best.Total); tot < best.Total {
						best.Total, best.Q = tot, q
					}
					continue
				}
			}
			ms, tot, ok := d.MoveMakespan(idx, q, m, best.Makespan, best.Total)
			if head {
				runs[mi].head = q
			}
			runs[mi].ms, runs[mi].tot = ms, tot
			if ok && (!found || ms < best.Makespan || (ms == best.Makespan && tot < best.Total)) {
				best, found, bestHead = Move{Makespan: ms, Total: tot, Q: q, MI: mi}, true, runs[mi].head
				if collapse {
					// A completed replay leaves the whole finish-time
					// vector in work.
					copy(d.bestFin, d.work)
				}
			}
		}
	}
	return best
}

// loses reports whether every member of the run, whose makespan is at
// least r.ms and whose total is at least r.tot·keep, loses to best: on
// makespan, or on a total at or past best's. An infinite total proves
// nothing about a reordered sum, so it never settles one.
func (r runKey) loses(best Move, keep float64) bool {
	return r.ms > best.Makespan ||
		(r.ms == best.Makespan && r.tot <= math.MaxFloat64 && r.tot*keep >= best.Total)
}

// memberTotal is the total finish time of the candidate moving the gene
// at idx to q, a member of the best candidate's run: the best's finish
// times (bestFin) summed in the candidate's string order, from the
// checkpoint a replay would start at, so the sum is bit-identical to the
// replay's. It stops once the running total reaches bound, where the
// candidate has lost. Like a convergence fast-forward it folds stored
// values, so it is not counted as a replay or as gene steps.
func (d *DeltaEvaluator) memberTotal(idx, q int, bound float64) float64 {
	c := min(idx, q) / d.stride
	tot := d.ckTotal[c]
	base, fin, moved := d.base, d.bestFin, d.base[idx].Task
	for p := c * d.stride; p < len(base) && tot < bound; p++ {
		t := base[p].Task
		switch {
		case p == q:
			t = moved
		case p >= idx && p < q:
			t = base[p+1].Task
		case p > q && p <= idx:
			t = base[p-1].Task
		}
		tot += fin[t]
	}
	return tot
}
