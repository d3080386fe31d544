// Package heuristics provides classic constructive DAG-scheduling
// heuristics for heterogeneous systems: HEFT, CPOP, levelized Min-Min,
// Max-Min and Sufferage, MCT and Random.
//
// The paper's own comparison is SE vs GA, but its context (refs [4], [5])
// is the family of static mapping heuristics these implement. They serve
// three roles here: independent comparators in the experiment harness,
// seeds for the evolutionary algorithms (Wang et al. seed their GA with a
// baseline solution), and cross-checks for the evaluator (every heuristic's
// internally computed finish times must agree with the shared evaluator).
package heuristics

import (
	"math/rand"
	"sort"
	"sync"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// Result is a named heuristic solution.
type Result struct {
	// Name identifies the heuristic ("heft", "minmin", …).
	Name string
	// Solution is the constructed matching+scheduling string.
	Solution schedule.String
	// Makespan is Solution's schedule length under the shared evaluator.
	Makespan float64
}

// Random returns a uniformly random valid solution: a random topological
// order with uniformly random machine assignments.
func Random(g *taskgraph.Graph, sys *platform.System, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	assign := make([]taskgraph.MachineID, g.NumTasks())
	for t := range assign {
		assign[t] = taskgraph.MachineID(rng.Intn(sys.NumMachines()))
	}
	s := schedule.FromOrder(g.RandomTopoOrder(rng), assign)
	return finish("random", g, sys, s)
}

// MCT (minimum completion time) walks the tasks in deterministic
// topological order and assigns each to the machine that completes it
// earliest given the partial schedule.
func MCT(g *taskgraph.Graph, sys *platform.System) Result {
	b := newBuilder(g, sys)
	for _, t := range g.TopoOrder() {
		best := taskgraph.MachineID(0)
		bestEFT := -1.0
		for m := 0; m < sys.NumMachines(); m++ {
			_, eft := b.eft(t, taskgraph.MachineID(m))
			if bestEFT < 0 || eft < bestEFT {
				bestEFT = eft
				best = taskgraph.MachineID(m)
			}
		}
		b.place(t, best)
	}
	return finish("mct", g, sys, b.solution())
}

// MinMin is the levelized (ready-list) Min-Min heuristic: among all ready
// tasks, the (task, machine) pair with the globally smallest earliest
// finish time is scheduled next.
func MinMin(g *taskgraph.Graph, sys *platform.System) Result {
	return minMaxMin(g, sys, "minmin", false)
}

// MaxMin is the levelized Max-Min heuristic: each step schedules the ready
// task whose best finish time is largest (on its best machine), serving
// long tasks first.
func MaxMin(g *taskgraph.Graph, sys *platform.System) Result {
	return minMaxMin(g, sys, "maxmin", true)
}

func minMaxMin(g *taskgraph.Graph, sys *platform.System, name string, max bool) Result {
	b := newBuilder(g, sys)
	n := g.NumTasks()
	indeg := make([]int, n)
	var ready []taskgraph.TaskID
	for t := 0; t < n; t++ {
		indeg[t] = g.InDegree(taskgraph.TaskID(t))
		if indeg[t] == 0 {
			ready = append(ready, taskgraph.TaskID(t))
		}
	}
	for len(ready) > 0 {
		pickI := -1
		var pickM taskgraph.MachineID
		pickEFT := -1.0
		for i, t := range ready {
			// Best machine for t under the current partial schedule.
			bm := taskgraph.MachineID(0)
			bmEFT := -1.0
			for m := 0; m < sys.NumMachines(); m++ {
				_, eft := b.eft(t, taskgraph.MachineID(m))
				if bmEFT < 0 || eft < bmEFT {
					bmEFT = eft
					bm = taskgraph.MachineID(m)
				}
			}
			better := pickI < 0 || (max && bmEFT > pickEFT) || (!max && bmEFT < pickEFT)
			if better {
				pickI, pickM, pickEFT = i, bm, bmEFT
			}
		}
		t := ready[pickI]
		ready = append(ready[:pickI], ready[pickI+1:]...)
		b.place(t, pickM)
		for _, a := range g.Succs(t) {
			indeg[a.Task]--
			if indeg[a.Task] == 0 {
				ready = append(ready, a.Task)
			}
		}
	}
	return finish(name, g, sys, b.solution())
}

// All runs every heuristic, each on its own goroutine, and returns the
// results sorted by ascending makespan (name breaks ties). The heuristics
// only read g and sys, and each result is what a sequential call gives.
func All(g *taskgraph.Graph, sys *platform.System, seed int64) []Result {
	runs := []func() Result{
		func() Result { return HEFT(g, sys) },
		func() Result { return CPOP(g, sys) },
		func() Result { return MinMin(g, sys) },
		func() Result { return MaxMin(g, sys) },
		func() Result { return Sufferage(g, sys) },
		func() Result { return MCT(g, sys) },
		func() Result { return Random(g, sys, seed) },
	}
	rs := make([]Result, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs[i] = run()
		}()
	}
	wg.Wait()
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Makespan != rs[j].Makespan {
			return rs[i].Makespan < rs[j].Makespan
		}
		return rs[i].Name < rs[j].Name
	})
	return rs
}

// Best runs every heuristic and returns the one with the smallest makespan.
func Best(g *taskgraph.Graph, sys *platform.System, seed int64) Result {
	return All(g, sys, seed)[0]
}

// finish evaluates s with the shared evaluator and packages the Result.
func finish(name string, g *taskgraph.Graph, sys *platform.System, s schedule.String) Result {
	return Result{
		Name:     name,
		Solution: s,
		Makespan: schedule.NewEvaluator(g, sys).Makespan(s),
	}
}

// builder incrementally constructs a list schedule with the same
// non-preemptive in-order semantics as the evaluator, so internally
// computed finish times match a re-evaluation of the final string.
type builder struct {
	g      *taskgraph.Graph
	sys    *platform.System
	assign []taskgraph.MachineID
	fin    []float64
	ready  []float64
	done   []bool
	order  []taskgraph.TaskID
}

func newBuilder(g *taskgraph.Graph, sys *platform.System) *builder {
	return &builder{
		g:      g,
		sys:    sys,
		assign: make([]taskgraph.MachineID, g.NumTasks()),
		fin:    make([]float64, g.NumTasks()),
		ready:  make([]float64, sys.NumMachines()),
		done:   make([]bool, g.NumTasks()),
		order:  make([]taskgraph.TaskID, 0, g.NumTasks()),
	}
}

// eft returns the earliest start and finish of t on m given the partial
// schedule. All predecessors of t must already be placed.
func (b *builder) eft(t taskgraph.TaskID, m taskgraph.MachineID) (start, eft float64) {
	start = b.ready[m]
	for _, p := range b.g.Preds(t) {
		arr := b.fin[p.Task] + b.sys.TransferTime(b.assign[p.Task], m, p.Item)
		if arr > start {
			start = arr
		}
	}
	return start, start + b.sys.ExecTime(m, t)
}

// place appends t to machine m's order.
func (b *builder) place(t taskgraph.TaskID, m taskgraph.MachineID) {
	_, eft := b.eft(t, m)
	b.assign[t] = m
	b.fin[t] = eft
	b.ready[m] = eft
	b.done[t] = true
	b.order = append(b.order, t)
}

// solution converts the construction order and assignment into a string.
func (b *builder) solution() schedule.String {
	return schedule.FromOrder(b.order, b.assign)
}
