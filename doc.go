// Package repro is a Go reproduction of Barada, Sait & Baig, "Task
// Matching and Scheduling in Heterogeneous Systems Using Simulated
// Evolution" (IPPS 2001).
//
// The library implements the paper's simulated evolution (SE) scheduler
// for matching and scheduling coarse-grained task DAGs onto heterogeneous
// machine suites, together with every substrate the paper's evaluation
// depends on: the HC workload model (DAG, execution-time matrix E,
// transfer-time matrix Tr), a seeded workload generator parameterized by
// connectivity, heterogeneity and CCR, the combined matching+scheduling
// string encoding with an O(k+p) makespan evaluator, the genetic-algorithm
// baseline of Wang et al. (JPDC 1997), classic constructive heuristics
// (HEFT, CPOP, Min-Min, Max-Min, Sufferage, MCT), simulated-annealing and
// tabu-search extensions, and a figure-reproduction harness covering the
// paper's entire evaluation section. All algorithms are resumable searches
// opened through one name-keyed registry and run by one budget loop.
// Beyond the paper, the repository scales the heuristic up: an
// incremental evaluation engine answers candidate moves by checkpointed
// suffix replay, a sharded runner partitions large DAGs into
// weakly-coupled regions swept in parallel, every algorithm is a
// resumable search engine (Open/Step/Snapshot/Restore, with versioned
// snapshots that continue bit-identically after a restore), a
// session-pinned serving layer exposes it all — pinned live searches and
// step/snapshot/resume included — as a long-lived HTTP service backed by
// an optional durable store that parks idle sessions and recovers every
// session bit-identically after a crash, a distributed coordinator fans
// the sharded sweep's regions out to a pool of those services, surviving
// worker crashes bit-identically, and an online-scheduling harness
// replays tick-stamped churn traces — task arrivals, machine joins,
// leaves and speed changes — against a running engine, warm-starting it
// across each amendment instead of restarting (see DESIGN.md).
//
// Package layout:
//
//	internal/taskgraph   task DAGs and data items
//	internal/platform    machines, E and Tr matrices, interconnect topologies
//	internal/schedule    solution encoding + full and incremental evaluators
//	internal/workload    workload generator + the paper's Figure-1 example
//	internal/core        the SE engine (the paper's contribution), steppable
//	internal/shard       DAG region partitioning + parallel sharded SE
//	internal/dist        distributed shard fan-out onto remote mshd workers
//	internal/live        churn traces + tick-driven warm-start rescheduling
//	internal/ga          the Wang et al. GA baseline
//	internal/heuristics  HEFT, CPOP, Min-Min, Max-Min, Sufferage, MCT, random
//	internal/sa          simulated-annealing extension
//	internal/tabu        tabu-search extension
//	internal/scheduler   registry, resumable Search API + the Drive budget loop
//	internal/snap        versioned binary snapshot codec + CRC record framing
//	internal/jsonscan    one-pass JSON reader for uploaded workload documents
//	internal/store       durable write-behind session store (crash recovery)
//	internal/xrand       draw-counting, restorable random source
//	internal/runner      wall-clock races and parallel trials
//	internal/serve       session-pinned batched serving layer + HTTP client
//	internal/obs         dependency-free metrics registry + exporters
//	internal/stats       series, summaries and quantiles
//	internal/textplot    ASCII chart rendering
//	internal/experiments one entry per paper figure
//	cmd/mshc             schedule a workload from the command line
//	cmd/mshd             HTTP/JSON scheduling daemon (see README "Serving")
//	cmd/wlgen            generate workloads
//	cmd/grid             factorial workload-class × scheduler comparison
//	cmd/figures          regenerate the paper's figures
//
// See README.md for a quickstart. Benchmarks reproducing each figure live
// in bench_test.go; runnable walkthroughs live under examples/.
package repro
