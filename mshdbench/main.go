// Command mshdbench is the repository's end-to-end benchmark. It drives
// real mshd daemons over loopback HTTP through serve.Client from one load
// process, with seeded, fixed-work workloads, checks every output against
// in-process replays, and prints one JSON result line last.
//
// Run it through run.sh from the repository root, which builds cmd/mshd
// and this driver from the tree first:
//
//	bash mshdbench/run.sh --workload search-heavy --seed 1 --seconds 10 --trace 0
//
// --seconds sets how much work a run does, never how long it may run:
// op counts grow linearly with it and were sized so the timed phase lasts
// about that long on a 2-vCPU Xeon. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced pass, and the spans are written to the -out directory.
// NOTES.md describes the workloads, metrics and layer map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the JSON object printed last.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: search-heavy, serve-mix or dist-2w")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 10, "run size: op counts scale with it (see the package doc)")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a separate traced pass")
		mshd    = flag.String("mshd", "", "mshd binary under test")
		out     = flag.String("out", ".bench_build/mshdbench", "directory for logs, stores, spans and results")
	)
	flag.Parse()
	if *mshd == "" || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "mshdbench: need -mshd and --trace 0 or 1")
		os.Exit(2)
	}
	p, err := newPlan(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mshdbench:", err)
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		stopAll()
	}()

	code, err := run(ctx, p, *mshd, *out, *seconds, *trace == 1)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mshdbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(ctx context.Context, p *plan, mshd, out string, seconds int, traced bool) (int, error) {
	runDir := filepath.Join(out, "runs", fmt.Sprintf("%s-seed%d-%d", p.Workload, p.Seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return 0, err
	}
	e := &env{mshd: mshd, runDir: runDir}
	h := fingerprint()
	rep := &report{plan: p, host: h, seconds: seconds, traced: traced}
	rep.probeBefore = probe()

	setups := p.Setups
	var rec *recorder
	if traced {
		// The untraced pass is the baseline trace.overhead_ratio divides by.
		setups = 1
		base, c, err := e.runPass(ctx, p, "untraced", setups, nil)
		if err != nil {
			return 0, err
		}
		c.stop()
		rep.untracedWall = base.wall
		rec = newRecorder()
	}
	ps, c, err := e.runPass(ctx, p, "timed", setups, rec)
	if err != nil {
		return 0, err
	}
	if !traced {
		c.stop()
	}
	rep.pass = ps

	chk := newChecker(rec)
	chk.countErrors(p, ps.res)
	var reps []replayed
	switch {
	case p.Durable: // serve-mix
		reps = chk.replayManager(p, ps.warm, ps.res, ps.finals)
	case p.Workers > 0: // dist-2w
		reps = chk.replaySearch(p, ps.res[0], ps.finals, "se-shard")
	default: // search-heavy
		reps = chk.replaySearch(p, ps.res[0], ps.finals, "se")
	}
	var lc layerCounts
	if traced {
		lc = probeLayers(ctx, p, reps, rec, c.workerURLs(), runDir)
		c.stop()
	}
	rep.probeAfter = probe()
	if traced {
		rep.layers = layerMetrics(p, ps, rec, lc, rep.untracedWall, (rep.probeBefore+rep.probeAfter)/2)
	}
	rep.check = chk
	rep.work = fixedWorkOf(p, ps)
	if err := checkFixedWork(filepath.Join(out, "fixedwork"), mshd, p, rep.work); err != nil {
		chk.fail(nil, "%v", err)
	}

	res := rep.finish()
	if traced {
		spans := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.json", p.Workload, p.Seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return 0, err
		}
		if err := rec.write(spans); err != nil {
			return 0, err
		}
		fmt.Printf("spans: %s (%d)\n", spans, len(rec.spans))
	}
	if err := rep.save(filepath.Join(out, "results")); err != nil {
		return 0, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1, nil
	}
	// Daemon stores and logs are kept only for failed runs.
	return 0, os.RemoveAll(runDir)
}

// fixedWork is a run's deterministic effort: identical for every run of
// one build and seed, whatever the host or timing.
type fixedWork struct {
	Generations uint64 `json:"generations"`
	Genes       uint64 `json:"genes"`
	Events      int    `json:"events"`
}

// fixedWorkOf reads the effort from what the server returned: the final
// results' generations and genes, and the trace events it acknowledged.
func fixedWorkOf(p *plan, ps *pass) fixedWork {
	var w fixedWork
	for _, f := range ps.finals {
		w.Generations += uint64(f.Iterations)
		w.Genes += f.GenesEvaluated
	}
	for c, ops := range p.Conns {
		for j, o := range ops {
			if o.Kind == opEvent && ps.res[c][j].err == nil {
				w.Events++
			}
		}
	}
	return w
}

// checkFixedWork records the first run's effort per build and generated
// plan, and fails any later run of the same build and plan whose effort
// differs. Records are keyed by digests of the mshd binary and of the
// plan, so a build that legitimately changes the search effort starts its
// own record instead of failing against another build's.
func checkFixedWork(dir, mshd string, p *plan, w fixedWork) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	bin, err := os.ReadFile(mshd)
	if err != nil {
		return err
	}
	enc, err := json.Marshal(p)
	if err != nil {
		return err
	}
	binSum, planSum := sha256.Sum256(bin), sha256.Sum256(enc)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%x-%x.json", p.Workload, p.Seed, binSum[:8], planSum[:8]))
	if b, err := os.ReadFile(path); err == nil {
		var prev fixedWork
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("fixed-work record %s: %v", path, err)
		}
		if prev != w {
			return fmt.Errorf("fixed work differs from an earlier run of this build and seed: %+v, earlier %+v", w, prev)
		}
		return nil
	}
	b, err := json.Marshal(w)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// report gathers a run's figures and prints the human-readable summary.
type report struct {
	plan         *plan
	host         host
	seconds      int
	traced       bool
	probeBefore  float64
	probeAfter   float64
	untracedWall time.Duration
	pass         *pass
	check        *checker
	work         fixedWork
	layers       map[string]metric

	e2e    map[string]metric
	counts map[string]int
	lines  []string
}

func (r *report) add(name string, v float64, unit string, n int, note string) {
	r.e2e[name] = metric{v, unit}
	r.counts[name] = n
	r.lines = append(r.lines, fmt.Sprintf("  %-16s %14.6f %-5s n=%-6d %s", name, v, unit, n, note))
}

func (r *report) missing(name, unit string, n int, why string) {
	r.lines = append(r.lines, fmt.Sprintf("  %-16s %14s %-5s n=%-6d %s", name, "missing", unit, n, why))
}

// finish computes the end-to-end metrics, prints the summary and returns
// the JSON result line.
func (r *report) finish() line {
	p, ps := r.plan, r.pass
	r.e2e, r.counts = map[string]metric{}, map[string]int{}
	attempted := p.ops()
	failed := len(r.check.failed) + r.check.other
	wall := ps.wall.Seconds()
	completed := 0

	lat := map[string][]float64{}
	gens := 0
	type arrival struct {
		at   time.Duration
		gens float64
	}
	var arrivals []arrival
	for c, ops := range p.Conns {
		for j, o := range ops {
			res := &ps.res[c][j]
			if res.err != nil {
				continue
			}
			completed++
			lat[o.Kind.class()] = append(lat[o.Kind.class()], float64(res.lat)/float64(time.Millisecond))
			a := arrival{at: res.done.Sub(ps.start)}
			if o.Kind == opStep {
				gens += res.step.Performed
				a.gens = float64(res.step.Performed)
			}
			arrivals = append(arrivals, a)
		}
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })
	done, ones, stepped := make([]time.Duration, len(arrivals)), make([]float64, len(arrivals)), make([]float64, len(arrivals))
	for i, a := range arrivals {
		done[i], ones[i], stepped[i] = a.at, 1, a.gens
	}
	opRates, genRates := windowRates(done, ones, rateWindows), windowRates(done, stepped, rateWindows)
	makespan := 0.0
	for _, f := range ps.finals {
		makespan += f.Makespan
	}
	makespan /= float64(len(ps.finals))

	r.add("setup_s", median(ps.setups), "s", len(ps.setups), "median set-up")
	r.add("ops_per_s", float64(completed)/wall, "1/s", completed, fmt.Sprintf("completed requests ÷ timed seconds; closed loop, %d connection(s)", len(p.Conns)))
	r.add("ops_per_s_windows", median(opRates), "1/s", completed, fmt.Sprintf("diagnostic: median of %d equal-count windows", len(opRates)))
	r.add("gens_per_s", float64(gens)/wall, "1/s", gens, "generations (se-dist: coordinator rounds) ÷ timed seconds")
	r.add("gens_per_s_windows", median(genRates), "1/s", gens, fmt.Sprintf("diagnostic: median of %d equal-count windows", len(genRates)))
	for _, class := range []string{"step", "read", "event", "commit"} {
		xs := lat[class]
		if len(xs) == 0 {
			continue
		}
		s := summarize(xs)
		r.add(class+"_p50_ms", s.Median, "ms", s.N, "client-observed median")
		if s.HasP99 {
			r.add(class+"_p99_ms", s.P99, "ms", s.N, "client-observed p99")
		} else {
			r.missing(class+"_p99_ms", "ms", s.N, fmt.Sprintf("fewer than %d samples beyond it", tailSamples))
		}
	}
	r.add("cpu_ms_per_op", float64(ps.cpu)/float64(time.Millisecond)/float64(attempted), "ms", attempted, "user+sys CPU of every mshd")
	r.add("rss_mb", ps.rssMB, "MiB", len(ps.finals), "peak RSS summed over the daemons")
	r.add("makespan", makespan, "tu", len(ps.finals), "mean final best makespan over sessions")
	r.add("failed_ratio", float64(failed)/float64(attempted), "ratio", attempted, "")

	fmt.Printf("mshdbench %s seed=%d seconds=%d trace=%v\n", p.Workload, p.Seed, r.seconds, r.traced)
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s probe_ms=%.3f/%.3f (before/after) steal=%.2f%%\n",
		r.host.CPU, r.host.NProc, r.host.GOMAXPROCS, r.host.GoVersion, r.probeBefore, r.probeAfter, ps.steal)
	fmt.Printf("warm-up: %s\n", p.Warmup)
	fmt.Printf("work: sessions=%d ops=%d generations=%d genes=%d events=%d wall=%.3fs\n",
		len(p.Sessions), attempted, r.work.Generations, r.work.Genes, r.work.Events, wall)
	if r.traced {
		fmt.Println("end-to-end figures of the traced pass (reference only; gated figures come from --trace 0 runs):")
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	if r.traced {
		names := make([]string, 0, len(r.layers))
		for k := range r.layers {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Println("per-layer (traced pass):")
		for _, k := range names {
			fmt.Printf("  %-30s %14.6f %s\n", k, r.layers[k].Value, r.layers[k].Unit)
		}
	}
	for _, n := range r.check.notes {
		fmt.Println("mismatch:", n)
	}

	out := line{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if r.traced {
		for _, name := range perLayerNames {
			out.Metrics[name] = r.layers[name]
		}
	} else {
		for _, name := range endToEndNames {
			out.Metrics[name] = r.e2e[name]
		}
	}
	return out
}

// endToEndNames are the metrics every workload reports and BENCHMARK.json
// lists; the rest of the summary is printed but not gated.
var endToEndNames = []string{"setup_s", "ops_per_s", "gens_per_s", "step_p50_ms", "read_p50_ms", "cpu_ms_per_op", "rss_mb", "makespan"}

// save writes the run's full figures next to the spans.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"workload": r.plan.Workload, "seed": r.plan.Seed, "seconds": r.seconds, "traced": r.traced,
		"host": r.host, "host.probe_ms": []float64{r.probeBefore, r.probeAfter}, "host.steal_pct": r.pass.steal,
		"warmup": r.plan.Warmup, "fixed_work": r.work,
		"end_to_end": r.e2e, "samples": r.counts, "per_layer": r.layers,
		"mismatches": r.check.notes,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if r.traced {
		kind = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s-%s.json", r.plan.Workload, r.plan.Seed, kind, strings.ReplaceAll(time.Now().UTC().Format("20060102T150405.000"), ".", ""))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
