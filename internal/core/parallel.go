package core

import (
	"sync"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// allocPool evaluates the candidate (position, machine) combinations of one
// allocation step across a fixed set of worker goroutines, each owning a
// private DeltaEvaluator. Reduction uses the lexicographic key (makespan,
// total, position, machine rank), which is exactly the order the serial
// scan visits candidates in, so parallel runs pick bit-identical moves.
type allocPool struct {
	workers []*schedule.DeltaEvaluator
}

type moveKey struct {
	ms    float64
	total float64
	q     int
	mi    int
}

func (k moveKey) better(o moveKey) bool {
	if k.ms != o.ms {
		return k.ms < o.ms
	}
	if k.total != o.total {
		return k.total < o.total
	}
	if k.q != o.q {
		return k.q < o.q
	}
	return k.mi < o.mi
}

func newAllocPool(g *taskgraph.Graph, sys *platform.System, n int) *allocPool {
	// A scan has at most NumTasks × NumMachines candidates and fans out
	// only with at least two per worker, so a pool of more than half that
	// always scans on worker 0: it is built at the smallest such size,
	// which scans identically. Workers arrives from snapshots, so this
	// also bounds what a hostile one can make a restore allocate.
	if most := g.NumTasks()*sys.NumMachines()/2 + 1; n > most {
		n = most
	}
	p := &allocPool{workers: make([]*schedule.DeltaEvaluator, n)}
	for i := range p.workers {
		p.workers[i] = schedule.NewDeltaEvaluator(g, sys)
	}
	return p
}

// bestMove evaluates all candidates for moving the gene at idx of cur into
// positions [lo, hi] on any of the given machines, fanned out over the
// pool's workers, and returns the winning makespan, position and machine
// index.
func (p *allocPool) bestMove(cur schedule.String, idx, lo, hi int, machines []taskgraph.MachineID) (ms float64, q, mi int) {
	total := (hi - lo + 1) * len(machines)
	nw := len(p.workers)
	if total < 2*nw {
		// Too little work to amortize goroutine wakeups.
		return BestMove(p.workers[0], cur, idx, lo, hi, machines)
	}
	results := make([]moveKey, nw)
	var wg sync.WaitGroup
	chunk := (total + nw - 1) / nw
	for wi := 0; wi < nw; wi++ {
		start := wi * chunk
		end := start + chunk
		if end > total {
			end = total
		}
		if start >= end {
			results[wi] = moveKey{ms: -1}
			continue
		}
		wg.Add(1)
		go func(wi, start, end int) {
			defer wg.Done()
			// Each worker pins the shared base once and replays only its
			// chunk's candidates, bounded by the chunk's local best. An
			// aborted candidate loses to that local best, so it can never
			// be the chunk minimum — the deterministic reduction below is
			// unchanged.
			d := p.workers[wi]
			d.Pin(cur)
			best := moveKey{ms: -1}
			boundMs, boundTotal := schedule.NoBound, schedule.NoBound
			for i := start; i < end; i++ {
				qq := lo + i/len(machines)
				mm := i % len(machines)
				c, total, ok := d.MoveMakespan(idx, qq, machines[mm], boundMs, boundTotal)
				if !ok {
					continue
				}
				k := moveKey{ms: c, total: total, q: qq, mi: mm}
				if best.ms < 0 || k.better(best) {
					best = k
					boundMs, boundTotal = best.ms, best.total
				}
			}
			results[wi] = best
		}(wi, start, end)
	}
	wg.Wait()
	best := moveKey{ms: -1}
	for _, k := range results {
		if k.ms < 0 {
			continue
		}
		if best.ms < 0 || k.better(best) {
			best = k
		}
	}
	return best.ms, best.q, best.mi
}

// counts sums the evaluation-effort ledgers over all workers.
func (p *allocPool) counts() schedule.EvalCounts {
	var c schedule.EvalCounts
	for _, d := range p.workers {
		c = c.Add(d.Counts())
	}
	return c
}
