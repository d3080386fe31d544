// Command perf is the repository's benchmark-ledger harness: it runs the
// workload preset matrix across the registry's headline algorithms through
// the in-process resumable-search API, and emits one versioned ledger
// entry per (preset, algorithm) cell — ns/op, allocs/op, bytes/op,
// steps/s, genes/s, snapshot encode/decode cost, and the final makespan
// and evaluation-effort counts as correctness goldens. Each cell steps
// five fresh searches and records the run with the median ns/op. Served
// and distributed search are measured end to end over real HTTP by the
// mshdbench module instead.
//
// The ledger is a committed BENCH_<n>.json file; -check diffs a fresh run
// against one. The comparison is wall-clock-free by default — exact
// makespan/effort goldens plus a tolerance band on allocs/op — so CI can
// gate on it without flaking on machine speed (pass -ns-tol to opt into a
// throughput band too). A run that shares no cell with the ledger fails,
// since it compared nothing.
//
// Usage:
//
//	go run ./cmd/perf -o BENCH_22.json -ledger 22   # write a full ledger
//	go run ./cmd/perf -quick -check BENCH_22.json   # CI regression gate
//	go run ./cmd/perf -presets large -algos se,ga -cpuprofile cpu.out
//
// Determinism: every cell is driven by a fixed seed and a pinned shard
// count (-shards; the adaptive resolution depends on GOMAXPROCS and would
// break cross-machine goldens), so makespans, evaluation counts and
// snapshot sizes are bit-stable across machines. Only the timing fields
// vary with hardware.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/scheduler"
	"repro/internal/workload"
)

// schemaVersion gates the ledger JSON layout.
const schemaVersion = 1

// defaultAlgos is the headline matrix: the paper's algorithm, its sharded
// scale-out, and the three comparator metaheuristics.
const defaultAlgos = "se,se-shard,ga,sa,tabu"

// defaultPresets spans the paper's scale range; -quick cuts it down to the
// cells CI can afford.
const (
	defaultPresets = "small,medium,large,xlarge"
	quickPresets   = "small,medium"
)

// defaultSteps fixes the per-preset iteration counts. They are part of the
// golden contract: a quick -check run and a full ledger run execute the
// same number of iterations per overlapping cell, so their makespans and
// effort counts must agree exactly.
var defaultSteps = map[string]int{
	"figure1": 300,
	"small":   200,
	"medium":  100,
	"large":   50,
	"xlarge":  10,
}

// Entry is one ledger cell: algorithm × preset, stepped a fixed number of
// iterations through the public resumable-search API.
type Entry struct {
	Preset string `json:"preset"`
	Algo   string `json:"algo"`
	Steps  int    `json:"steps"`

	// Timing fields — hardware-dependent, never compared exactly.
	NsPerOp     float64 `json:"ns_per_op"`
	StepsPerSec float64 `json:"steps_per_sec"`
	GenesPerSec float64 `json:"genes_per_sec,omitempty"`

	// Allocation fields — stable across machines for deterministic code;
	// -check bands them.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	// Correctness goldens — bit-stable; -check compares them exactly.
	Makespan       float64 `json:"makespan"`
	GenesEvaluated uint64  `json:"genes_evaluated,omitempty"`
	SnapshotBytes  int     `json:"snapshot_bytes"`

	// Snapshot path timing: the median over the cell's runs of each
	// run's fastest of snapReps calls.
	SnapshotEncodeNs float64 `json:"snapshot_encode_ns"`
	SnapshotDecodeNs float64 `json:"snapshot_decode_ns"`
}

// Ledger is one committed BENCH_<n>.json document.
type Ledger struct {
	SchemaVersion int     `json:"schema_version"`
	Ledger        int     `json:"ledger,omitempty"`
	GoVersion     string  `json:"go_version"`
	Seed          int64   `json:"seed"`
	Shards        int     `json:"shards"`
	Entries       []Entry `json:"entries"`
}

func main() {
	var (
		presetsFlag = flag.String("presets", "", "comma-separated preset list (default "+defaultPresets+"; with -quick: "+quickPresets+")")
		algosFlag   = flag.String("algos", defaultAlgos, "comma-separated algorithm list from the scheduler registry")
		quick       = flag.Bool("quick", false, "restrict the default preset list to the CI-sized cells")
		seed        = flag.Int64("seed", 1, "search seed for every cell")
		shards      = flag.Int("shards", 4, "pinned se-shard region count (adaptive resolution is machine-dependent)")
		stepsFlag   = flag.Int("steps", 0, "override the per-preset iteration count (0 = built-in table)")
		out         = flag.String("o", "", "write the ledger JSON to this file (default stdout)")
		ledgerNum   = flag.Int("ledger", 0, "ledger sequence number recorded in the document")
		checkPath   = flag.String("check", "", "compare this run against a committed ledger file and fail on regression")
		allocTol    = flag.Float64("alloc-tol", 0.25, "relative tolerance on allocs/op in -check mode")
		nsTol       = flag.Float64("ns-tol", 0, "relative tolerance on ns/op in -check mode (0 = ignore timing)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the matrix run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile taken after the matrix run to this file")
	)
	flag.Parse()

	presets := *presetsFlag
	if presets == "" {
		presets = defaultPresets
		if *quick {
			presets = quickPresets
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	led := Ledger{
		SchemaVersion: schemaVersion,
		Ledger:        *ledgerNum,
		GoVersion:     runtime.Version(),
		Seed:          *seed,
		Shards:        *shards,
	}
	for _, preset := range splitList(presets) {
		w, err := workload.Preset(preset)
		if err != nil {
			fatal("%v", err)
		}
		steps := *stepsFlag
		if steps <= 0 {
			steps = defaultSteps[preset]
			if steps <= 0 {
				steps = 50
			}
		}
		for _, algo := range splitList(*algosFlag) {
			entry, err := runCell(w, preset, algo, steps, *seed, *shards)
			if err != nil {
				fatal("%s/%s: %v", preset, algo, err)
			}
			led.Entries = append(led.Entries, entry)
			progress(entry)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("memprofile: %v", err)
		}
		f.Close()
	}

	if *checkPath != "" {
		golden, err := loadLedger(*checkPath)
		if err != nil {
			fatal("check: %v", err)
		}
		fails, compared := diffLedgers(golden, &led, *allocTol, *nsTol)
		if fails > 0 {
			fatal("check: %d regression(s) against %s", fails, *checkPath)
		}
		if compared == 0 {
			fatal("check: no cell of this run overlaps %s, so nothing was compared", *checkPath)
		}
		fmt.Fprintf(os.Stderr, "perf: no regressions against %s (%d overlapping cells)\n",
			*checkPath, compared)
	}

	enc, err := json.MarshalIndent(&led, "", "  ")
	if err != nil {
		fatal("encode: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal("write: %v", err)
	}
	fmt.Fprintf(os.Stderr, "perf: wrote %d entries to %s\n", len(led.Entries), *out)
}

// cellRuns is the number of fresh searches each cell steps. A single
// timed run is at the mercy of one scheduling hiccup; the median of five
// is not, and five identical runs also prove the goldens repeat.
const cellRuns = 5

// runCell steps cellRuns fresh searches of one algorithm on one preset
// and writes the run with the median ns/op, timing fields and allocation
// counts alike. Snapshot encode and decode are timed on every run's search
// and written as the median of the runs, each run's time the minimum of
// snapReps. The goldens (makespan, genes, snapshot size) must agree
// across the runs.
func runCell(w *workload.Workload, preset, algo string, steps int, seed int64, shards int) (Entry, error) {
	type run struct {
		entry  Entry
		search scheduler.Search
	}
	runs := make([]run, 0, cellRuns)
	for len(runs) < cellRuns {
		e, search, err := stepCell(w, preset, algo, steps, seed, shards)
		if err != nil {
			return Entry{}, err
		}
		if r := runs; len(r) > 0 && (e.Makespan != r[0].entry.Makespan || e.GenesEvaluated != r[0].entry.GenesEvaluated || e.SnapshotBytes != r[0].entry.SnapshotBytes) {
			return Entry{}, fmt.Errorf("run %d (makespan %v, genes %d, snapshot %d bytes) differs from run 0 (%v, %d, %d)",
				len(r), e.Makespan, e.GenesEvaluated, e.SnapshotBytes, r[0].entry.Makespan, r[0].entry.GenesEvaluated, r[0].entry.SnapshotBytes)
		}
		runs = append(runs, run{e, search})
	}
	encodeNs := make([]float64, 0, cellRuns)
	decodeNs := make([]float64, 0, cellRuns)
	for _, r := range runs {
		snapBytes, enc, err := timeEncode(func() ([]byte, error) { return r.search.Snapshot() })
		if err != nil {
			return Entry{}, fmt.Errorf("snapshot: %w", err)
		}
		dec, err := timeOp(func() error {
			_, err := scheduler.Restore(algo, snapBytes, w.Graph, w.System)
			return err
		})
		if err != nil {
			return Entry{}, fmt.Errorf("restore: %w", err)
		}
		encodeNs, decodeNs = append(encodeNs, enc), append(decodeNs, dec)
	}
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(a.entry.NsPerOp, b.entry.NsPerOp) })
	slices.Sort(encodeNs)
	slices.Sort(decodeNs)
	entry := runs[cellRuns/2].entry
	entry.SnapshotEncodeNs, entry.SnapshotDecodeNs = encodeNs[cellRuns/2], decodeNs[cellRuns/2]
	return entry, nil
}

// stepCell opens one search and drives it a fixed number of Step calls
// bracketed by memory and clock measurements, then records its goldens.
func stepCell(w *workload.Workload, preset, algo string, steps int, seed int64, shards int) (Entry, scheduler.Search, error) {
	search, err := scheduler.Open(algo, w.Graph, w.System,
		scheduler.WithSeed(seed), scheduler.WithShards(shards))
	if err != nil {
		return Entry{}, nil, err
	}
	ctx := context.Background()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	performed := 0
	for i := 0; i < steps; i++ {
		_, more := search.Step(ctx)
		performed++
		if !more {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	res := search.Best()
	entry := Entry{
		Preset:         preset,
		Algo:           algo,
		Steps:          performed,
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(performed),
		StepsPerSec:    float64(performed) / elapsed.Seconds(),
		AllocsPerOp:    float64(m1.Mallocs-m0.Mallocs) / float64(performed),
		BytesPerOp:     float64(m1.TotalAlloc-m0.TotalAlloc) / float64(performed),
		Makespan:       res.Makespan,
		GenesEvaluated: res.GenesEvaluated,
	}
	if elapsed > 0 {
		entry.GenesPerSec = float64(res.GenesEvaluated) / elapsed.Seconds()
	}
	snapBytes, err := search.Snapshot()
	if err != nil {
		return Entry{}, nil, fmt.Errorf("snapshot: %w", err)
	}
	entry.SnapshotBytes = len(snapBytes)
	return entry, search, nil
}

// snapReps bounds the snapshot timing loops; the minimum over reps filters
// scheduler noise out of a microsecond-scale measurement.
const snapReps = 8

// timeEncode times fn over snapReps calls and returns the last encoding,
// the minimum per-call nanoseconds, and any error.
func timeEncode(fn func() ([]byte, error)) ([]byte, float64, error) {
	var out []byte
	best := 0.0
	for i := 0; i < snapReps; i++ {
		t := time.Now()
		b, err := fn()
		d := float64(time.Since(t).Nanoseconds())
		if err != nil {
			return nil, 0, err
		}
		out = b
		if i == 0 || d < best {
			best = d
		}
	}
	return out, best, nil
}

// timeOp is timeEncode for operations without a byte result.
func timeOp(fn func() error) (float64, error) {
	_, ns, err := timeEncode(func() ([]byte, error) { return nil, fn() })
	return ns, err
}

// loadLedger reads and validates a committed ledger file.
func loadLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led Ledger
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if led.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, this binary speaks %d", path, led.SchemaVersion, schemaVersion)
	}
	return &led, nil
}

// diffLedgers compares the current run against the golden ledger on every
// overlapping (preset, algo) cell and reports the number of regressions
// and of compared cells. Makespans, effort counts and snapshot sizes must
// match exactly (they are bit-identity goldens); allocs/op gets a
// relative band plus a small absolute slack for scheduler jitter in
// parallel cells; ns/op is compared only when nsTol > 0.
func diffLedgers(golden, cur *Ledger, allocTol, nsTol float64) (fails, compared int) {
	if golden.Seed != cur.Seed || golden.Shards != cur.Shards {
		fmt.Fprintf(os.Stderr, "perf: FAIL config mismatch: golden seed=%d shards=%d, run seed=%d shards=%d\n",
			golden.Seed, golden.Shards, cur.Seed, cur.Shards)
		return 1, 0
	}
	goldenByKey := make(map[string]Entry, len(golden.Entries))
	for _, e := range golden.Entries {
		goldenByKey[e.Preset+"/"+e.Algo] = e
	}
	for _, e := range cur.Entries {
		g, ok := goldenByKey[e.Preset+"/"+e.Algo]
		if !ok {
			continue
		}
		compared++
		key := e.Preset + "/" + e.Algo
		if e.Steps != g.Steps {
			fails++
			fmt.Fprintf(os.Stderr, "perf: FAIL %s: steps %d, golden %d (step counts are part of the golden contract)\n", key, e.Steps, g.Steps)
			continue
		}
		if e.Makespan != g.Makespan {
			fails++
			fmt.Fprintf(os.Stderr, "perf: FAIL %s: makespan %v, golden %v\n", key, e.Makespan, g.Makespan)
		}
		if e.GenesEvaluated != g.GenesEvaluated {
			fails++
			fmt.Fprintf(os.Stderr, "perf: FAIL %s: genes evaluated %d, golden %d\n", key, e.GenesEvaluated, g.GenesEvaluated)
		}
		if e.SnapshotBytes != g.SnapshotBytes {
			fails++
			fmt.Fprintf(os.Stderr, "perf: FAIL %s: snapshot %d bytes, golden %d\n", key, e.SnapshotBytes, g.SnapshotBytes)
		}
		if limit := g.AllocsPerOp*(1+allocTol) + 2; e.AllocsPerOp > limit {
			fails++
			fmt.Fprintf(os.Stderr, "perf: FAIL %s: allocs/op %.1f exceeds golden %.1f (+%.0f%% tolerance)\n",
				key, e.AllocsPerOp, g.AllocsPerOp, allocTol*100)
		}
		if nsTol > 0 {
			if limit := g.NsPerOp * (1 + nsTol); e.NsPerOp > limit {
				fails++
				fmt.Fprintf(os.Stderr, "perf: FAIL %s: ns/op %.0f exceeds golden %.0f (+%.0f%% tolerance)\n",
					key, e.NsPerOp, g.NsPerOp, nsTol*100)
			}
		}
	}
	return fails, compared
}

func progress(e Entry) {
	fmt.Fprintf(os.Stderr, "perf: %-8s %-9s %4d steps  %10.0f ns/op  %8.1f allocs/op  makespan %.4f\n",
		e.Preset, e.Algo, e.Steps, e.NsPerOp, e.AllocsPerOp, e.Makespan)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...)
	os.Exit(1)
}
