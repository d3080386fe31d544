package core

import (
	"sync"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// allocPool scans the candidate (position, machine) combinations of one
// allocation step across a fixed set of worker goroutines, each owning a
// private DeltaEvaluator and scanning a block of whole insertion points.
// Reduction uses the scan's own key (schedule.Move.Less), which is
// exactly the order the serial scan visits candidates in, so parallel
// runs pick bit-identical moves.
type allocPool struct {
	workers []*schedule.DeltaEvaluator
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

// bestMove scans all candidates for moving the gene at idx of cur into
// positions [lo, hi] on any of the given machines, the positions split
// into contiguous blocks over the pool's workers, and returns the winner.
func (p *allocPool) bestMove(cur schedule.String, idx, lo, hi int, machines []taskgraph.MachineID) schedule.Move {
	rows := hi - lo + 1
	nw := len(p.workers)
	if rows*len(machines) < 2*nw || rows < 2 {
		// Too little work to amortize goroutine wakeups.
		d := p.workers[0]
		d.Pin(cur)
		return d.Scan(idx, lo, hi, machines)
	}
	chunk := (rows + nw - 1) / nw
	nw = (rows + chunk - 1) / chunk // no empty blocks
	results := make([]schedule.Move, nw)
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		start := lo + wi*chunk
		end := min(start+chunk-1, hi)
		wg.Add(1)
		go func(wi, start, end int) {
			defer wg.Done()
			// Each worker pins the shared base once and scans its block,
			// bounded by the block's own best. An aborted or skipped
			// candidate loses to that best, so it can never be the block
			// minimum — the deterministic reduction below is unchanged.
			d := p.workers[wi]
			d.Pin(cur)
			results[wi] = d.Scan(idx, start, end, machines)
		}(wi, start, end)
	}
	wg.Wait()
	best := results[0]
	for _, mv := range results[1:] {
		if mv.Less(best) {
			best = mv
		}
	}
	return best
}

// counts sums the evaluation-effort ledgers over all workers.
func (p *allocPool) counts() schedule.EvalCounts {
	var c schedule.EvalCounts
	for _, d := range p.workers {
		c = c.Add(d.Counts())
	}
	return c
}
