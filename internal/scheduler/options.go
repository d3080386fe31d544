package scheduler

import (
	"repro/internal/obs"
	"repro/internal/schedule"
)

// Config collects every tunable a registered scheduler understands. Each
// algorithm reads the fields that apply to it and ignores the rest; zero
// values mean "use the algorithm's default". Construct a Config through
// functional Options passed to Open.
type Config struct {
	// Seed drives all randomness (every algorithm).
	Seed int64
	// Workers parallelizes SE allocation and GA fitness evaluation
	// (0/1 = serial). For se-shard — whose regions always fan out — it
	// instead caps the number of regions sweeping concurrently, and 0
	// means no cap.
	Workers int
	// Initial, when non-nil, seeds the run with this solution.
	Initial schedule.String
	// FullEval disables the incremental evaluation engine
	// (schedule.DeltaEvaluator) in every metaheuristic and scores each
	// candidate with a full left-to-right pass. Results are byte-identical
	// either way; the flag exists for ablations and differential tests.
	FullEval bool

	// Bias is SE's selection bias B (§4.4).
	Bias float64
	// Y is SE's candidate-machine count per task (§4.5); 0 = all machines.
	Y int
	// PerturbAfter enables SE's iterated-local-search kick after this many
	// stagnant generations (0 = the paper's behaviour; se-ils defaults it).
	PerturbAfter int

	// Population is GA's population size (0 = Wang et al.'s default).
	Population int
	// Crossover is GA's per-pair crossover rate (0 = default).
	Crossover float64
	// Mutation is GA's per-chromosome mutation rate (0 = default).
	Mutation float64
	// Elitism is GA's number of preserved best chromosomes (0 = default).
	Elitism int

	// InitialTemp is SA's starting temperature (0 = derived).
	InitialTemp float64
	// Cooling is SA's geometric cooling factor (0 = default).
	Cooling float64
	// MovesPerTemp is SA's moves per temperature block (0 = task count).
	MovesPerTemp int

	// Tenure is tabu search's tabu tenure (0 = default).
	Tenure int
	// Neighborhood is tabu search's sampled moves per iteration
	// (0 = task count).
	Neighborhood int

	// Shards is se-shard's requested region count. 0 picks it adaptively
	// from the DAG depth, the candidate partitions' residual coupling and
	// GOMAXPROCS (shard.AdaptiveShards); the count is clamped to the DAG
	// depth, and 1 effective region runs serial SE.
	Shards int
	// ReconcileSweeps bounds se-shard's boundary-reconciliation pass
	// (0 = shard.DefaultReconcileSweeps, negative = none).
	ReconcileSweeps int

	// WorkerURLs lists the base URLs of remote mshd workers for se-dist's
	// coordinator to dispatch shard regions to. Empty means step every
	// region in-process (bit-identical to the remote path — stepping is
	// deterministic either way).
	WorkerURLs []string
	// RoundBatch is se-dist's generations-per-round count: each coordinator
	// round advances every region by this many generations in one RPC
	// (0/1 = one generation per round, matching se-shard's Step exactly).
	RoundBatch int

	// Observer, when non-nil, is called once per executed Step with that
	// iteration's observation — the same Progress Budget.OnProgress sees,
	// delivered regardless of how the search is driven (Drive or external
	// Step calls). It is an observation-only tap: it
	// cannot stop the run, it runs after the iteration's state is
	// computed, and it must not mutate search state. The serving layer
	// adapts it into per-session steps/s and best-makespan gauges.
	Observer func(Progress)
	// Metrics, when non-nil, is the registry engines with runtime
	// instruments export into (se-dist's coordinator registers its
	// transport counters and per-worker gauges there). Purely
	// observational: a nil registry changes nothing about what any
	// algorithm computes.
	Metrics *obs.Registry
}

// Option configures a search at Open time.
type Option func(*Config)

// WithSeed sets the random seed.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithWorkers sets the number of parallel evaluation workers (for
// se-shard: the cap on concurrently sweeping regions).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithInitial seeds the run with an existing solution.
func WithInitial(s schedule.String) Option { return func(c *Config) { c.Initial = s } }

// WithFullEval disables the incremental evaluation engine (ablations and
// differential tests; results are byte-identical either way).
func WithFullEval() Option { return func(c *Config) { c.FullEval = true } }

// WithBias sets SE's selection bias B.
func WithBias(b float64) Option { return func(c *Config) { c.Bias = b } }

// WithY sets SE's candidate-machine count per task.
func WithY(y int) Option { return func(c *Config) { c.Y = y } }

// WithPerturbAfter sets SE's iterated-local-search kick threshold.
func WithPerturbAfter(n int) Option { return func(c *Config) { c.PerturbAfter = n } }

// WithPopulation sets GA's population size.
func WithPopulation(n int) Option { return func(c *Config) { c.Population = n } }

// WithCrossover sets GA's crossover rate.
func WithCrossover(rate float64) Option { return func(c *Config) { c.Crossover = rate } }

// WithMutation sets GA's mutation rate.
func WithMutation(rate float64) Option { return func(c *Config) { c.Mutation = rate } }

// WithElitism sets GA's elite count.
func WithElitism(n int) Option { return func(c *Config) { c.Elitism = n } }

// WithInitialTemp sets SA's starting temperature.
func WithInitialTemp(t float64) Option { return func(c *Config) { c.InitialTemp = t } }

// WithCooling sets SA's geometric cooling factor.
func WithCooling(f float64) Option { return func(c *Config) { c.Cooling = f } }

// WithMovesPerTemp sets SA's moves per temperature block.
func WithMovesPerTemp(n int) Option { return func(c *Config) { c.MovesPerTemp = n } }

// WithTenure sets tabu search's tabu tenure.
func WithTenure(n int) Option { return func(c *Config) { c.Tenure = n } }

// WithNeighborhood sets tabu search's sampled moves per iteration.
func WithNeighborhood(n int) Option { return func(c *Config) { c.Neighborhood = n } }

// WithShards sets se-shard's requested DAG region count (0 = adaptive).
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithReconcileSweeps sets se-shard's boundary-reconciliation sweep count.
func WithReconcileSweeps(n int) Option { return func(c *Config) { c.ReconcileSweeps = n } }

// WithWorkerURLs points se-dist's coordinator at a pool of remote mshd
// workers (base URLs). An empty list steps regions in-process.
func WithWorkerURLs(urls ...string) Option {
	return func(c *Config) { c.WorkerURLs = append([]string(nil), urls...) }
}

// WithRoundBatch sets se-dist's generations-per-round count (the number of
// region generations executed per worker RPC).
func WithRoundBatch(n int) Option { return func(c *Config) { c.RoundBatch = n } }

// WithObserver taps every executed Step's Progress observation (see
// Config.Observer). Observation-only: it never perturbs rng streams,
// effort ledgers or any other search state.
func WithObserver(fn func(Progress)) Option { return func(c *Config) { c.Observer = fn } }

// WithMetrics points engines that export runtime instruments (se-dist's
// coordinator) at a shared obs.Registry (see Config.Metrics).
func WithMetrics(reg *obs.Registry) Option { return func(c *Config) { c.Metrics = reg } }
