package schedule

import (
	"math"

	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// EvalCounts is the evaluation-effort ledger shared by Evaluator and
// DeltaEvaluator: how many full left-to-right passes ran, how many
// checkpointed suffix replays answered a candidate instead, how many of
// those replays the early-exit bound aborted, and the total number of
// genes stepped across all of them. Genes is the machine-level measure of
// work — a full pass steps len(s) genes, a replay only its suffix — so
// speedups show up here deterministically, before they show up on the
// wall clock.
type EvalCounts struct {
	// Full counts complete left-to-right evaluations (including
	// DeltaEvaluator pins, which are full passes that also capture
	// checkpoints).
	Full uint64
	// Delta counts checkpointed suffix replays.
	Delta uint64
	// Aborted counts the subset of Delta that the early-exit bound cut
	// short.
	Aborted uint64
	// Genes counts individual gene evaluation steps across Full and Delta.
	Genes uint64
}

// Add returns the field-wise sum of c and o.
func (c EvalCounts) Add(o EvalCounts) EvalCounts {
	return EvalCounts{
		Full:    c.Full + o.Full,
		Delta:   c.Delta + o.Delta,
		Aborted: c.Aborted + o.Aborted,
		Genes:   c.Genes + o.Genes,
	}
}

// Sub returns the field-wise difference of c and o, saturating at zero.
// Snapshot restores use it to cancel the cost of a restore-time re-pin
// that the snapshotted run already accounted; saturation keeps hostile
// snapshot counters from wrapping.
func (c EvalCounts) Sub(o EvalCounts) EvalCounts {
	sub := func(a, b uint64) uint64 {
		if b > a {
			return 0
		}
		return a - b
	}
	return EvalCounts{
		Full:    sub(c.Full, o.Full),
		Delta:   sub(c.Delta, o.Delta),
		Aborted: sub(c.Aborted, o.Aborted),
		Genes:   sub(c.Genes, o.Genes),
	}
}

// NoBound disables the early-exit abort when passed as a bound argument
// of MoveMakespan.
var NoBound = math.Inf(1)

// DeltaEvaluator answers "what would the makespan be after this move?"
// without re-evaluating the whole string. It pins a base string, runs one
// full left-to-right pass over it, and snapshots the evaluation state —
// machine-ready times, running makespan, running finish-time sum — at
// every stride-th prefix. Because a move of the gene at index idx to
// index q can only change finish times from min(idx, q) onward, a
// candidate is then answered by replaying only the suffix from the
// nearest checkpoint at or below that point. Four further mechanisms cut
// the replayed suffix down (see DESIGN.md):
//
//   - a lexicographic early-exit bound aborts a replay once the running
//     (makespan, total) key provably loses to the best candidate so far;
//   - right after the moved gene, a "no task can gain" test settles most
//     losing candidates: when neither the moved task's outgoing data nor
//     the slot it vacates can let any other task start earlier than in
//     the base, every other task finishes no earlier than its base finish
//     time, which bounds the final key from below;
//   - a machine-scan memo snapshots the state just before the insertion
//     point q, which is independent of the candidate machine, so the Y
//     machines of one insertion point replay that prefix once;
//   - a convergence cutoff detects that the disturbance has washed out —
//     past the moved span, no diverged finish time can reach a remaining
//     task and every machine still in use has its base ready time — and
//     fast-forwards the rest from stored base finish times.
//
// Every gene the replay does step is sparse where it can be: a gene whose
// predecessors all kept their base finish times, over edges the candidate
// does not reprice, starts at max(machine ready, base data-ready time)
// without walking its predecessors. Once the disturbance is broad — the
// influence frontier has passed the last checkpoint — tracking it costs
// more than it saves, and the rest of the string walks every gene.
//
// The replay performs bit-for-bit the same float operations, in the same
// order, as Evaluator would on the materialized moved string, so a search
// returns byte-identical schedules whether it scores its moves by replay
// or, inside a Reference scope, by full passes (the differential tests in
// delta_test.go and the registry-wide equivalence tests enforce this).
//
// A DeltaEvaluator is not safe for concurrent use; create one per
// goroutine, like Evaluator.
type DeltaEvaluator struct {
	g   *taskgraph.Graph
	sys *platform.System

	base       String                // pinned copy of the base string
	basePos    []int                 // task → index within base
	baseFinish []float64             // task → finish time under base
	baseAssign []taskgraph.MachineID // task → machine under base
	baseMs     float64
	baseTotal  float64

	// baseArr[t] is t's data-ready time under the base: the latest
	// baseFinish[p] + xfer over its incoming edges (0 for an entry task).
	// Pin fills it in its edge walk; CommitMove adopts the arrivals its
	// replay walked.
	baseArr []float64

	// Facts about the base for the "no task can gain" test, derived by
	// indexBase on the first bounded replay after a Pin or CommitMove
	// (indexed records that they are current; unbounded users — SA, GA —
	// never pay for them). vacateSafe[t] holds when the task after t on
	// t's base machine is absent or was data-bound (its baseArr ≥
	// baseFinish[t]), so taking t off that machine lets no task start
	// earlier. top holds the two largest base finish times, topTask the
	// task finishing at top[0]; prevOn is indexBase's per-machine scratch.
	indexed    bool
	vacateSafe []bool
	top        [2]float64
	topTask    taskgraph.TaskID
	prevOn     []taskgraph.TaskID

	// Checkpoint c holds the evaluation state after the first c*stride
	// genes of base: ready times per machine (flattened rows of ckReady),
	// the running makespan and the running finish-time sum. The prefix
	// finish times themselves need no snapshot — they are identical to
	// baseFinish for every task placed before the checkpoint.
	stride  int
	ckReady []float64
	ckMax   []float64
	ckTotal []float64

	// work is the replay's finish-time array. The invariant is that every
	// task placed before dirtyFrom in the base holds its base finish time,
	// so predecessor reads during a replay are unconditional: a pred
	// before the replay start is clean base state, a pred at or after it
	// was stepped earlier in the same replay (topological order).
	work      []float64
	dirtyFrom int
	ready     []float64 // machine → ready time during a replay

	// A move replay walks a gene's predecessors only when the gene is
	// stamped: a predecessor's finish time diverged from the base, or an
	// incoming edge was repriced. Any other gene starts at max(ready,
	// baseArr). Stamps are epochs, so clearing them is one increment:
	// stamps made before the insertion point q carry the replay's pre
	// epoch (the memo hands it to the other machines of that q), stamps
	// from q on a fresh one per candidate. walkArr[t] is the data-ready
	// time the last walk of t computed.
	stamp   []uint64
	epoch   uint64
	walkArr []float64

	// lastUse[m] is the last base position occupied by a task on machine
	// m (-1 when unused). The convergence cutoff ignores ready-time
	// divergence on machines with no tasks left to run.
	lastUse []int

	// xfer caches every edge's transfer time under the base assignment.
	// A data item is one DAG edge, so its ID is the edge's slot; between
	// calls xfer[d] == sys.TransferTime(baseAssign[producer],
	// baseAssign[consumer], d). Pin fills it, CommitMove reprices the
	// moved task's edges, and MoveMakespan reprices them for the
	// candidate machine for the length of one replay. Replayed genes then
	// add a cached operand instead of resolving the machine pair in the
	// transfer matrix per predecessor.
	xfer []float64

	// lastFrom is the first replayed position of the most recent
	// successful evaluation (len(base) after a Pin), or -1 when the last
	// replay aborted. FinishInto needs it to merge base and replayed
	// finish times.
	lastFrom int

	// lastMove remembers the move of the most recent successful
	// MoveMakespan so CommitMove can verify it is rebasing onto the state
	// the work array actually holds.
	lastMove struct {
		idx, q int
		m      taskgraph.MachineID
		// The replay's stamp epochs and dense-tail start, from which
		// CommitMove tells the genes it walked.
		pre, cur  uint64
		denseFrom int
		valid     bool
	}

	// memo caches the replay state just before position q of the moved
	// string for the most recent (idx, q): that prefix is independent of
	// the candidate machine, so scanning the Y machines of one insertion
	// point replays it once instead of Y times.
	memo struct {
		valid        bool
		idx, q, from int
		maxInfl      int
		pre          uint64
		ms, tot      float64
		ready        []float64
	}

	// runs is Scan's per-machine-rank run state and bestFin the finish
	// times of its best candidate so far (see Scan), sized at construction
	// so that a scan allocates nothing.
	runs    []runKey
	bestFin []float64

	counts EvalCounts

	// ref is non-nil in reference mode (see Reference): moves are then
	// scored by full passes instead of replays.
	ref *reference
}

// NewDeltaEvaluator returns a DeltaEvaluator for g on sys. Pin must be
// called before any replay.
func NewDeltaEvaluator(g *taskgraph.Graph, sys *platform.System) *DeltaEvaluator {
	n, l := g.NumTasks(), sys.NumMachines()
	// Denser checkpoints cost l floats each at pin time; sparser ones
	// lengthen every replay by up to stride genes. stride ≈ l/4 keeps the
	// pin overhead near one extra machine-row per gene quartet while
	// bounding the replay detour well below one full pass.
	stride := (l + 3) / 4
	numCk := (n-1)/stride + 1
	d := &DeltaEvaluator{
		g:          g,
		sys:        sys,
		basePos:    make([]int, n),
		baseFinish: make([]float64, n),
		baseAssign: make([]taskgraph.MachineID, n),
		baseArr:    make([]float64, n),
		vacateSafe: make([]bool, n),
		prevOn:     make([]taskgraph.TaskID, l),
		stride:     stride,
		ckReady:    make([]float64, numCk*l),
		ckMax:      make([]float64, numCk),
		ckTotal:    make([]float64, numCk),
		work:       make([]float64, n),
		ready:      make([]float64, l),
		lastUse:    make([]int, l),
		xfer:       make([]float64, g.NumItems()),
		stamp:      make([]uint64, n),
		walkArr:    make([]float64, n),
		runs:       make([]runKey, l),
		bestFin:    make([]float64, n),
		lastFrom:   -1,
	}
	d.memo.ready = make([]float64, l)
	d.ref = newReference(d)
	return d
}

// Graph returns the task graph the DeltaEvaluator is bound to.
func (d *DeltaEvaluator) Graph() *taskgraph.Graph { return d.g }

// System returns the platform the DeltaEvaluator is bound to.
func (d *DeltaEvaluator) System() *platform.System { return d.sys }

// Counts returns the evaluation-effort ledger so far.
func (d *DeltaEvaluator) Counts() EvalCounts { return d.counts }

// Stride returns the checkpoint spacing in gene positions.
func (d *DeltaEvaluator) Stride() int { return d.stride }

// Base returns the pinned base string (nil before the first Pin). The
// caller must not modify it.
func (d *DeltaEvaluator) Base() String { return d.base }

// BaseMakespan returns the pinned base string's makespan.
func (d *DeltaEvaluator) BaseMakespan() float64 { return d.baseMs }

// Pin copies s as the new base string, evaluates it with one full pass,
// and captures the prefix checkpoints subsequent replays start from. It
// returns the base makespan and total finish time.
func (d *DeltaEvaluator) Pin(s String) (makespan, total float64) {
	n := len(s)
	if d.base == nil {
		d.base = make(String, n)
	}
	copy(d.base, s)
	l := d.sys.NumMachines()
	ready := d.ready
	for m := range ready {
		ready[m] = 0
		d.lastUse[m] = -1
	}
	runningMax, runningTotal := 0.0, 0.0
	for i, gene := range d.base {
		if i%d.stride == 0 {
			c := i / d.stride
			copy(d.ckReady[c*l:(c+1)*l], ready)
			d.ckMax[c] = runningMax
			d.ckTotal[c] = runningTotal
		}
		t, m := gene.Task, gene.Machine
		d.basePos[t] = i
		d.baseAssign[t] = m
		d.lastUse[m] = i
		arr := 0.0
		for _, p := range d.g.Preds(t) {
			// Predecessors precede t in the string (topological order), so
			// their finish times and machines are already set.
			x := d.sys.TransferTime(d.baseAssign[p.Task], m, p.Item)
			d.xfer[p.Item] = x
			if a := d.baseFinish[p.Task] + x; a > arr {
				arr = a
			}
		}
		d.baseArr[t] = arr
		start := ready[m]
		if arr > start {
			start = arr
		}
		f := start + d.sys.ExecTime(m, t)
		d.baseFinish[t] = f
		d.work[t] = f
		ready[m] = f
		if f > runningMax {
			runningMax = f
		}
		runningTotal += f
	}
	d.baseMs, d.baseTotal = runningMax, runningTotal
	d.indexed = false
	d.counts.Full++
	d.counts.Genes += uint64(n)
	d.dirtyFrom = n
	d.lastFrom = n
	d.lastMove.valid = false
	d.memo.valid = false
	return runningMax, runningTotal
}

// restore loads the checkpoint covering position first and returns the
// replay start position (the checkpoint's own position, ≤ first) together
// with the checkpointed running makespan and total.
func (d *DeltaEvaluator) restore(first int) (from int, runningMax, runningTotal float64) {
	c := first / d.stride
	from = c * d.stride
	l := d.sys.NumMachines()
	copy(d.ready, d.ckReady[c*l:(c+1)*l])
	return from, d.ckMax[c], d.ckTotal[c]
}

// clean re-establishes the work-array invariant for a replay starting at
// from: every entry for a task placed before from must hold its base
// finish time. Only the span a previous replay dirtied needs rewriting.
func (d *DeltaEvaluator) clean(from int) {
	for j := d.dirtyFrom; j < from; j++ {
		t := d.base[j].Task
		d.work[t] = d.baseFinish[t]
	}
	d.dirtyFrom = from
}

// tailConverged reports whether a replay standing before checkpoint
// position j has rejoined the base schedule: every machine with work
// left at positions ≥ j must show exactly the base's checkpointed ready
// time. Callers additionally ensure no diverged finish time can reach a
// task at ≥ j through a data dependency (the maxInfl frontier); together
// the two conditions make the remaining evaluation bit-identical to the
// base's.
func (d *DeltaEvaluator) tailConverged(j int) bool {
	l := d.sys.NumMachines()
	row := d.ckReady[(j/d.stride)*l:]
	for mm := 0; mm < l; mm++ {
		if d.lastUse[mm] >= j && d.ready[mm] != row[mm] {
			return false
		}
	}
	return true
}

// MoveMakespan answers the makespan and total finish time of the string
// obtained from the pinned base by moving the gene at index idx to index
// q (valid-range coordinates, see MoveInto) on machine m — without
// materializing that string. Only the suffix from the checkpoint at or
// below min(idx, q) is replayed, and of that suffix only the part the
// memo, the convergence cutoff and the bound cannot rule out.
//
// (boundMs, boundTotal) is the early-exit threshold, the lexicographic
// (makespan, total) key of the best candidate seen so far. Both running
// quantities are monotone during a replay, so the replay aborts — ok =
// false — as soon as the candidate provably cannot beat that key: when
// the running makespan strictly exceeds boundMs, or equals it while the
// running total has reached boundTotal (an exact (makespan, total) tie
// also loses, because the scan visits candidates in the tie-break order
// of the final key), or when the "no task can gain" lower key (see
// settled) loses the same way right after the moved gene. An aborted
// replay returns that losing key: a lower bound on the candidate's final
// makespan and on its final total, so a caller can tell a makespan loss
// (makespan > boundMs) from a total loss and see its margin (Scan does).
// A candidate whose final key beats (boundMs, boundTotal) is never
// aborted. Pass NoBound for either component to disable that part of the
// abort; SA passes both (Metropolis needs exact values), tabu bounds only
// the makespan (its selection ignores totals).
func (d *DeltaEvaluator) MoveMakespan(idx, q int, m taskgraph.MachineID, boundMs, boundTotal float64) (makespan, total float64, ok bool) {
	if d.base == nil {
		panic("schedule: DeltaEvaluator.MoveMakespan called before Pin")
	}
	if d.ref != nil {
		return d.referenceMove(idx, q, m)
	}
	n := len(d.base)
	first := idx
	if q < first {
		first = q
	}
	// The moved string's genes before position q do not depend on the
	// candidate machine, so when the previous call evaluated the same
	// (idx, q) the memoized before-q state — stamps included — replaces
	// the prefix replay. maxInfl is the conservative frontier of
	// divergence through data dependencies: one past the furthest position
	// any diverged task's successor can occupy in the moved string;
	// machine-order divergence is caught separately by tailConverged's
	// ready comparison.
	var from int
	var ms, tot float64
	var pre uint64
	maxInfl := 0
	useMemo := d.memo.valid && d.memo.idx == idx && d.memo.q == q
	if useMemo {
		from = d.memo.from
		copy(d.ready, d.memo.ready)
		ms, tot, maxInfl, pre = d.memo.ms, d.memo.tot, d.memo.maxInfl, d.memo.pre
	} else {
		d.memo.valid = false
		from, ms, tot = d.restore(first)
		d.clean(from)
		d.epoch++
		pre = d.epoch
	}
	if ms > boundMs || (ms == boundMs && tot >= boundTotal) {
		// The prefix alone already loses to the bound key; the final
		// makespan and total can only be larger.
		d.counts.Delta++
		d.counts.Aborted++
		d.lastFrom = -1
		d.lastMove.valid = false
		return ms, tot, false
	}
	movedT := d.base[idx].Task
	movedM := m
	hi := q
	if idx > hi {
		hi = idx
	}

	// Failed convergence attempts back off exponentially so a replay that
	// never converges pays O(log) attempts, not one per checkpoint. Once
	// the influence frontier passes the last checkpoint no attempt can
	// succeed anymore, and the disturbance is broad: stamping then costs
	// more than the sparse steps save, so the rest of the string is
	// replayed densely (see the loop after this one).
	stride := d.stride
	lastCk := ((n - 1) / stride) * stride
	denseFrom := n
	base, work, ready, xfer := d.base, d.work, d.ready, d.xfer
	baseFinish, baseArr, stamp, walkArr := d.baseFinish, d.baseArr, d.stamp, d.walkArr
	steps := 0
	start := from
	if useMemo {
		start = q
	}
	nextAttempt := (hi/stride + 1) * stride // first checkpoint past hi
	attemptGap := stride
	cur := pre
	ok = true
	// Every gene but the moved one keeps its base machine, so the edge
	// cache holds the right transfer times for all edges except the
	// moved task's own, which this candidate's machine reprices until
	// the walk ends. Genes before q read none of them — the moved task
	// is stepped at q and the valid range places every successor after
	// it — so the memoized prefix is unaffected.
	moving := movedM != d.baseAssign[movedT]
	if moving {
		d.priceEdges(movedT, movedM)
	}

	// Walk the moved string's suffix without building it: the base genes
	// shift by one across [min(idx,q), max(idx,q)], the moved gene lands
	// at q, and the tail holds the base genes at their base positions.
	for p := start; p < n; p++ {
		if p == nextAttempt {
			// Tail convergence attempt: once the disturbance has provably
			// washed out, the rest of the schedule IS the base schedule —
			// fast-forward from stored finish times instead of
			// re-stepping dependencies.
			if p > maxInfl && d.tailConverged(p) {
				for ; p < n; p++ {
					t := base[p].Task
					f := baseFinish[t]
					work[t] = f
					if f > ms {
						ms = f
						if ms > boundMs {
							ok = false
							break
						}
					}
					tot += f
					if ms == boundMs && tot >= boundTotal {
						ok = false
						break
					}
				}
				break
			}
			if p > maxInfl {
				nextAttempt = p + attemptGap
				attemptGap *= 2
			} else {
				nextAttempt = p + stride
			}
			for nextAttempt%stride != 0 {
				nextAttempt++
			}
		}
		var t taskgraph.TaskID
		var mm taskgraph.MachineID
		switch {
		case p == q:
			if !useMemo {
				// Snapshot the machine-independent before-q state for the
				// other candidate machines of this insertion point.
				d.memo.idx, d.memo.q, d.memo.from = idx, q, from
				d.memo.ms, d.memo.tot, d.memo.maxInfl, d.memo.pre = ms, tot, maxInfl, pre
				copy(d.memo.ready, ready)
				d.memo.valid = true
			}
			// Stamps from here on belong to this candidate alone. The
			// moved gene always walks: its incoming edges may be repriced.
			d.epoch++
			cur = d.epoch
			t, mm = movedT, movedM
			stamp[t] = cur
		case p >= idx && p < q:
			t, mm = base[p+1].Task, base[p+1].Machine
		case p > q && p <= idx:
			t, mm = base[p-1].Task, base[p-1].Machine
		default:
			t, mm = base[p].Task, base[p].Machine
		}

		st := ready[mm]
		if s := stamp[t]; s == cur || s == pre {
			a := 0.0
			for _, pr := range d.g.Preds(t) {
				if arr := work[pr.Task] + xfer[pr.Item]; arr > a {
					a = arr
				}
			}
			walkArr[t] = a
			if a > st {
				st = a
			}
		} else if a := baseArr[t]; a > st {
			// Undisturbed inputs: the walk would compute exactly the
			// base's data-ready time.
			st = a
		}
		f := st + d.sys.ExecTime(mm, t)
		work[t] = f
		ready[mm] = f
		steps++
		if f > ms {
			ms = f
			if ms > boundMs {
				ok = false
				break
			}
		}
		tot += f
		if ms == boundMs && tot >= boundTotal {
			ok = false
			break
		}
		if p == q && boundMs < NoBound {
			if lowMs, lowTot, lost := d.settled(idx, q, f, moving, ms, tot, boundMs, boundTotal); lost {
				ms, tot, ok = lowMs, lowTot, false
				break
			}
		}
		// A diverged finish time — or, after a machine change, the moved
		// task's repriced outgoing edges even at a tied finish — disturbs
		// the successors: stamp them and push the influence frontier. A
		// pre stamp stays: the memo's other machines still need it.
		if f != baseFinish[t] || (p == q && moving) {
			for _, sc := range d.g.Succs(t) {
				if stamp[sc.Task] != pre {
					stamp[sc.Task] = cur
				}
				if sp := d.basePos[sc.Task] + 1; sp > maxInfl {
					maxInfl = sp
				}
			}
			if p > q && maxInfl >= lastCk {
				denseFrom = p + 1
				break
			}
		}
	}
	// The dense tail: past q (so the memo never sees it) once the
	// disturbance is broad, every gene walks its predecessors and nothing
	// is stamped, since no sparse step or convergence attempt follows.
	for p := denseFrom; ok && p < n; p++ {
		g := base[p]
		if p <= idx {
			g = base[p-1]
		}
		t := g.Task
		st := ready[g.Machine]
		a := 0.0
		for _, pr := range d.g.Preds(t) {
			if arr := work[pr.Task] + xfer[pr.Item]; arr > a {
				a = arr
			}
		}
		walkArr[t] = a
		if a > st {
			st = a
		}
		f := st + d.sys.ExecTime(g.Machine, t)
		work[t] = f
		ready[g.Machine] = f
		steps++
		if f > ms {
			ms = f
			if ms > boundMs {
				ok = false
			}
		}
		tot += f
		if ms == boundMs && tot >= boundTotal {
			ok = false
		}
	}

	if moving {
		d.priceEdges(movedT, d.baseAssign[movedT])
	}
	d.counts.Delta++
	d.counts.Genes += uint64(steps)
	if !ok {
		d.counts.Aborted++
		d.lastFrom = -1
		d.lastMove.valid = false
		return ms, tot, false
	}
	d.lastFrom = from
	d.lastMove.idx, d.lastMove.q, d.lastMove.m = idx, q, m
	d.lastMove.pre, d.lastMove.cur, d.lastMove.denseFrom = pre, cur, denseFrom
	d.lastMove.valid = true
	return ms, tot, true
}

// settled is the "no task can gain" test, run once per candidate right
// after its moved gene t (base index idx, now at q) finished at f with
// running key (ms, tot). It reports whether the candidate's final key
// provably loses to (boundMs, boundTotal), and if so the lower key
// (lowMs, lowTot) that proves it.
//
// A task other than t could start earlier than in the base only through
// t's outgoing data or through the slot t vacates on its base machine;
// inserting t on m only delays tasks. So when (a) every successor's data
// from t arrives no earlier than in the base and (b) the task after t on
// its base machine is absent or was data-bound, induction over the moved
// string (start times are maxes of sums) shows that every task but t
// finishes no earlier than in the base. The final makespan is then at
// least max(ms, the largest base finish among tasks ≠ t), and — IEEE
// addition being monotone — the final total at least tot plus the
// remaining genes' base finish times added in the moved string's order.
func (d *DeltaEvaluator) settled(idx, q int, f float64, moving bool, ms, tot, boundMs, boundTotal float64) (lowMs, lowTot float64, lost bool) {
	if !d.indexed {
		d.indexBase()
	}
	t := d.base[idx].Task
	if !d.vacateSafe[t] { // (b)
		return 0, 0, false
	}
	fb, m0 := d.baseFinish[t], d.baseAssign[t]
	for _, sc := range d.g.Succs(t) { // (a); the cache holds the candidate's price
		xb := d.xfer[sc.Item]
		if moving {
			xb = d.sys.TransferTime(m0, d.baseAssign[sc.Task], sc.Item)
		}
		if f+d.xfer[sc.Item] < fb+xb {
			return 0, 0, false
		}
	}
	low := d.top[0]
	if t == d.topTask {
		low = d.top[1]
	}
	if ms > low {
		low = ms
	}
	if low != boundMs || boundTotal == NoBound {
		return low, tot, low > boundMs
	}
	// The moved string holds base[q..idx-1] then base[idx+1..] after q
	// when q < idx, and base[q+1..] otherwise.
	rest := q + 1
	if q < idx {
		for j := q; j < idx && tot < boundTotal; j++ {
			tot += d.baseFinish[d.base[j].Task]
		}
		rest = idx + 1
	}
	for j := rest; j < len(d.base) && tot < boundTotal; j++ {
		tot += d.baseFinish[d.base[j].Task]
	}
	return low, tot, tot >= boundTotal
}

// CommitMove rebases the evaluator onto the string the immediately
// preceding successful MoveMakespan evaluated, without re-evaluating
// anything: the work array already holds every affected finish time and
// walkArr the data-ready time of every gene whose inputs changed, so only
// the base string, positions, checkpoints and data-ready times need
// updating — a walk of the suffix with no predecessor work — plus the
// cached transfer times of the moved task's own edges. It returns the new base's makespan and total finish time
// (identical to what that MoveMakespan returned).
//
// This is the accept path of SA and tabu: evaluate a candidate with
// MoveMakespan, and if the search adopts it, CommitMove instead of a full
// re-Pin. It panics when the last evaluation was not a successful
// MoveMakespan of the same (idx, q, m).
func (d *DeltaEvaluator) CommitMove(idx, q int, m taskgraph.MachineID) (makespan, total float64) {
	if d.ref != nil {
		return d.referenceCommit(idx, q, m)
	}
	if !d.lastMove.valid || d.lastMove.idx != idx || d.lastMove.q != q || d.lastMove.m != m {
		panic("schedule: DeltaEvaluator.CommitMove does not match the last MoveMakespan")
	}
	n := len(d.base)
	from := d.lastFrom

	// Apply the move to the base string in place (copy handles the
	// overlapping ranges) and refresh positions over the shifted span.
	gene := d.base[idx]
	gene.Machine = m
	d.baseAssign[gene.Task] = m
	d.priceEdges(gene.Task, m)
	if q >= idx {
		copy(d.base[idx:q], d.base[idx+1:q+1])
		d.base[q] = gene
	} else {
		copy(d.base[q+1:idx+1], d.base[q:idx])
		d.base[q] = gene
	}
	UpdatePositions(d.basePos, d.base, idx, q)

	// One walk of [from, n) — every shifted position is ≥ from because
	// from ≤ min(idx, q) — adopts the replayed finish times and the
	// data-ready times of the genes the replay walked (stamped, or in the
	// dense tail; a gene it stepped sparsely, or fast-forwarded, kept its
	// inputs and so its baseArr),
	// re-derives the checkpoints by rolling the known values forward
	// (bookkeeping, not evaluation), and refreshes the machine-usage
	// positions the convergence cutoff consults. A machine whose tasks all
	// sit before from keeps its lastUse; one that lost its last task to the
	// move may keep a stale-high value, which only makes tailConverged
	// check an extra machine — conservative, never unsound.
	l := d.sys.NumMachines()
	c := from / d.stride
	copy(d.ready, d.ckReady[c*l:(c+1)*l])
	runningMax, runningTotal := d.ckMax[c], d.ckTotal[c]
	pre, cur, dense := d.lastMove.pre, d.lastMove.cur, d.lastMove.denseFrom
	for j := from; j < n; j++ {
		if j%d.stride == 0 {
			cc := j / d.stride
			copy(d.ckReady[cc*l:(cc+1)*l], d.ready)
			d.ckMax[cc] = runningMax
			d.ckTotal[cc] = runningTotal
		}
		g := d.base[j]
		f := d.work[g.Task]
		d.baseFinish[g.Task] = f
		if s := d.stamp[g.Task]; s == cur || s == pre || j >= dense {
			d.baseArr[g.Task] = d.walkArr[g.Task]
		}
		d.lastUse[g.Machine] = j
		d.ready[g.Machine] = f
		if f > runningMax {
			runningMax = f
		}
		runningTotal += f
	}
	d.dirtyFrom = n
	d.baseMs, d.baseTotal = runningMax, runningTotal
	d.indexed = false
	d.lastFrom = n
	d.lastMove.valid = false
	d.memo.valid = false
	return d.baseMs, d.baseTotal
}

// indexBase re-derives the base facts the "no task can gain" test reads —
// vacateSafe per task and the two largest finish times — from the base
// string, its finish times and its data-ready times, in one walk with no
// predecessor work.
func (d *DeltaEvaluator) indexBase() {
	prev := d.prevOn
	for m := range prev {
		prev[m] = -1
	}
	d.top, d.topTask, d.indexed = [2]float64{}, -1, true
	for _, g := range d.base {
		t := g.Task
		if u := prev[g.Machine]; u >= 0 {
			d.vacateSafe[u] = d.baseArr[t] >= d.baseFinish[u]
		}
		prev[g.Machine] = t
		d.vacateSafe[t] = true
		switch f := d.baseFinish[t]; {
		case f > d.top[0]:
			d.top[1], d.top[0], d.topTask = d.top[0], f, t
		case f > d.top[1]:
			d.top[1] = f
		}
	}
}

// priceEdges caches the transfer times of t's incoming and outgoing edges
// as if t ran on m and every other task on its base machine.
func (d *DeltaEvaluator) priceEdges(t taskgraph.TaskID, m taskgraph.MachineID) {
	for _, pr := range d.g.Preds(t) {
		d.xfer[pr.Item] = d.sys.TransferTime(d.baseAssign[pr.Task], m, pr.Item)
	}
	for _, sc := range d.g.Succs(t) {
		d.xfer[sc.Item] = d.sys.TransferTime(m, d.baseAssign[sc.Task], sc.Item)
	}
}

// FinishInto writes the per-task finish times of the most recent
// successful (un-aborted) evaluation into out, indexed by TaskID with
// length ≥ NumTasks. It panics when the last replay was aborted by its
// bound.
func (d *DeltaEvaluator) FinishInto(out []float64) {
	if d.lastFrom < 0 {
		panic("schedule: DeltaEvaluator.FinishInto after an aborted replay")
	}
	for t := 0; t < d.g.NumTasks(); t++ {
		if d.basePos[t] < d.lastFrom {
			out[t] = d.baseFinish[t]
		} else {
			out[t] = d.work[t]
		}
	}
}
