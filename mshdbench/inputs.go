package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/live"
	"repro/internal/serve"
	"repro/internal/workload"
)

// opKind is one request class the load driver issues.
type opKind uint8

const (
	opStep     opKind = iota // POST …/search/step, one generation (a write)
	opCommit                 // POST …/move with commit (a write)
	opEvent                  // POST …/events, the session's next trace event (a write)
	opMove                   // POST …/move without commit (a read)
	opBest                   // GET …/search/best (a read)
	opSchedule               // GET …/schedule (a read)
)

var opNames = [...]string{"step", "commit", "event", "move", "best", "schedule"}

func (k opKind) String() string { return opNames[k] }

// class is the latency class an op is reported under.
func (k opKind) class() string {
	switch k {
	case opStep:
		return "step"
	case opEvent:
		return "event"
	case opCommit:
		return "commit"
	default:
		return "read"
	}
}

// owned reports whether only the session's owning connection may issue
// the op: every op that changes session state, plus move queries, whose
// answer depends on the base string the owner's writes leave behind.
func (k opKind) owned() bool { return k <= opMove }

// op is one request of a generated op log.
type op struct {
	Kind    opKind
	Session int               // index into plan.Sessions
	Event   int               // opEvent: index into the session's trace
	Move    serve.MoveRequest // opMove, opCommit
}

// sessionSpec is one session of a plan: the workload document the load
// driver uploads, the search it opens, and the connection that owns it.
type sessionSpec struct {
	Doc    []byte
	Algo   string
	Seed   int64
	Shards int
	Owner  int
	Events []live.Event // serve-mix churn trace, applied in order by Owner
}

// plan is every input of one workload run, generated from the seed before
// anything starts. Runs are bounded by op count, never by time.
type plan struct {
	Workload    string
	Seed        int64
	Sessions    []sessionSpec
	Warm        []op   // untimed, issued in order before the timed phase
	Conns       [][]op // timed phase: one closed-loop stream per connection
	Workers     int    // worker mshd processes behind a coordinator (dist-2w)
	Durable     bool   // daemon runs over a durable store
	MaxSessions int    // the daemon's -max-sessions
	Setups      int    // set-ups per run; setup_s is their median
	Warmup      string // what happens before timing, for the report
}

// workloads lists the benchmark's workloads with their generators.
var workloads = []struct {
	name string
	gen  func(seed int64, seconds int) (*plan, error)
}{
	{"search-heavy", searchHeavy},
	{"serve-mix", serveMix},
	{"dist-2w", dist2w},
}

func newPlan(name string, seed int64, seconds int) (*plan, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds = %d, want >= 1", seconds)
	}
	for _, w := range workloads {
		if w.name == name {
			return w.gen(seed, seconds)
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (workloads: %v)", name, names)
}

// subSeed derives an independent seed for stream i of a run's seed, so
// adding a session never shifts the inputs of the others.
func subSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD39
	x ^= x >> 28
	return int64(x >> 1)
}

func encodeWorkload(p workload.Params) ([]byte, error) {
	w, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := workload.Encode(&buf, w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Sizing. Op counts grow linearly with --seconds and were calibrated so a
// run's timed phase lasts about that long on a 2-vCPU Xeon; they never
// depend on how fast the program under test is.
const (
	heavySessionsPerSecond = 2.4 // search-heavy sessions per second of run
	heavyGens              = 5   // generations stepped per search-heavy session
	heavyTasks             = 150
	heavyMachines          = 20

	mixSessions        = 48
	mixMaxSessions     = 32 // the daemon's cap, below mixSessions: the timed phase spills and revives sessions
	mixEvents          = 16 // churn events in each session's trace
	mixWarmSteps       = 3
	mixOpsPerConnPerSc = 1300
	mixZipfS, mixZipfV = 1.2, 4 // P(rank k) ∝ (4+k)^-1.2: the hottest session draws ~6% of ops

	// serve-mix op shares per connection. No traffic log exists to take
	// them from, so the read share, the commit and move-query shares and
	// the Zipf skew above are chosen. The ratio of steps to events is not:
	// the live replay driver steps live.DefaultStepsPerTick generations per
	// tick, and live.GenerateTrace spaces events 1.5 ticks apart on
	// average, so a session takes 12 steps per churn event.
	mixReadShare   = 0.44 // search/best and schedule reads of any session
	mixBestShare   = 0.24 // of which search/best; the rest are schedule reads
	mixCommitShare = 0.05
	mixMoveShare   = 0.20 // uncommitted move queries
	mixStepsPerEv  = live.DefaultStepsPerTick * 3 / 2

	distSessions      = 8
	distRoundsPerSc   = 8 // rounds per session per second of run
	distReadEvery     = 4 // a search/best read follows every fourth round
	distShards        = 4
	distWorkerDaemons = 2
)

// searchHeavy: one connection, in-memory daemon, sessions on large
// uploaded DAGs stepped round-robin from their first generation, each step
// followed by a best read.
func searchHeavy(seed int64, seconds int) (*plan, error) {
	n := int(heavySessionsPerSecond*float64(seconds) + 0.5)
	if n < 2 {
		n = 2
	}
	p := &plan{Workload: "search-heavy", Seed: seed, MaxSessions: n + 8, Setups: 3, Conns: make([][]op, 1),
		Warmup: "none: sessions start at generation 0 and the costly opening generations are timed"}
	for i := 0; i < n; i++ {
		doc, err := encodeWorkload(workload.Params{
			Tasks: heavyTasks, Machines: heavyMachines,
			Connectivity: workload.HighConnectivity, Heterogeneity: workload.HighHeterogeneity,
			CCR: 0.5, Seed: subSeed(seed, 1, i),
		})
		if err != nil {
			return nil, err
		}
		p.Sessions = append(p.Sessions, sessionSpec{Doc: doc, Algo: "se", Seed: subSeed(seed, 2, i)})
	}
	for g := 0; g < heavyGens; g++ {
		for i := range p.Sessions {
			p.Conns[0] = append(p.Conns[0], op{Kind: opStep, Session: i}, op{Kind: opBest, Session: i})
		}
	}
	return p, nil
}

// dist2w: one connection to a coordinator daemon fanning se-dist rounds
// out to two worker daemons; one step request is one round.
func dist2w(seed int64, seconds int) (*plan, error) {
	p := &plan{Workload: "dist-2w", Seed: seed, Workers: distWorkerDaemons, MaxSessions: 256, Setups: 5, Conns: make([][]op, 1),
		Warmup: "none: opening se-dist places every region on the workers during set-up; all rounds are timed"}
	for i := 0; i < distSessions; i++ {
		doc, err := encodeWorkload(workload.Params{
			Tasks: 60, Machines: 12,
			Connectivity: workload.HighConnectivity, Heterogeneity: workload.MediumHeterogeneity,
			CCR: 0.5, Seed: subSeed(seed, 1, i),
		})
		if err != nil {
			return nil, err
		}
		p.Sessions = append(p.Sessions, sessionSpec{Doc: doc, Algo: "se-dist", Seed: subSeed(seed, 2, i), Shards: distShards})
	}
	rounds := distRoundsPerSc * seconds
	for r := 1; r <= rounds; r++ {
		for i := range p.Sessions {
			p.Conns[0] = append(p.Conns[0], op{Kind: opStep, Session: i})
			if r%distReadEvery == 0 {
				p.Conns[0] = append(p.Conns[0], op{Kind: opBest, Session: i})
			}
		}
	}
	return p, nil
}

// shape tracks a serve-mix session's problem size as its owner plans
// events, so every planned move names a live task position and a serving
// machine at the moment it is sent.
type shape struct {
	tasks, machines int
	departed        map[int]bool
}

func (s *shape) apply(ev live.Event) {
	switch ev.Kind {
	case live.KindTaskArrival:
		s.tasks += len(ev.Tasks)
	case live.KindMachineJoin:
		s.machines++
	case live.KindMachineLeave:
		s.departed[ev.Machine] = true
	}
}

// move draws a re-matching move: the gene at a random position goes to a
// random serving machine and keeps its position, which is within the
// gene's valid range under any base string the session may hold.
func (s *shape) move(rng *rand.Rand, commit bool) serve.MoveRequest {
	idx := rng.Intn(s.tasks)
	m := rng.Intn(s.machines)
	for s.departed[m] {
		m = (m + 1) % s.machines
	}
	return serve.MoveRequest{Index: idx, To: idx, Machine: m, Commit: commit}
}

// serveMix: two connections, a durable daemon capped below its session
// count, Zipf-skewed sessions on small DAGs with churn traces, and a
// seeded mix of writes and reads.
func serveMix(seed int64, seconds int) (*plan, error) {
	const conns = 2
	p := &plan{Workload: "serve-mix", Seed: seed, Durable: true, MaxSessions: mixMaxSessions, Setups: 9, Conns: make([][]op, conns),
		Warmup: fmt.Sprintf("untimed warm phase creates the sessions, opens their searches and steps each %d generations; the daemon is then restarted over its store and set-up times that boot replay", mixWarmSteps)}
	shapes := make([]*shape, mixSessions)
	for i := 0; i < mixSessions; i++ {
		tr, err := live.GenerateTrace(live.TraceParams{
			Base: workload.Params{
				Tasks: 24, Machines: 5,
				Connectivity: workload.LowConnectivity, Heterogeneity: workload.MediumHeterogeneity,
				CCR: workload.LowCCR, Seed: subSeed(seed, 1, i),
			},
			Events: mixEvents,
			Seed:   subSeed(seed, 3, i),
		})
		if err != nil {
			return nil, err
		}
		doc, err := encodeWorkload(tr.Base)
		if err != nil {
			return nil, err
		}
		p.Sessions = append(p.Sessions, sessionSpec{Doc: doc, Algo: "se", Seed: subSeed(seed, 2, i), Owner: i % conns, Events: tr.Events})
		shapes[i] = &shape{tasks: tr.Base.Tasks, machines: tr.Base.Machines, departed: map[int]bool{}}
	}
	for s := 0; s < mixWarmSteps; s++ {
		for i := range p.Sessions {
			p.Warm = append(p.Warm, op{Kind: opStep, Session: i})
		}
	}

	// Zipf ranks map to sessions through seeded permutations, so the hot
	// sessions differ per seed and are spread over both owners.
	rng := rand.New(rand.NewSource(subSeed(seed, 4, 0)))
	all := rng.Perm(mixSessions)
	owned := make([][]int, conns)
	for _, i := range rng.Perm(mixSessions) {
		owned[p.Sessions[i].Owner] = append(owned[p.Sessions[i].Owner], i)
	}
	zipfAll := rand.NewZipf(rng, mixZipfS, mixZipfV, uint64(mixSessions-1))
	zipfOwn := make([]*rand.Zipf, conns)
	for c := range zipfOwn {
		zipfOwn[c] = rand.NewZipf(rng, mixZipfS, mixZipfV, uint64(len(owned[c])-1))
	}
	// What is left after reads, commits and move queries is the owner's
	// search writes: steps, with every mixStepsPerEv+1-th one an event
	// while the session's trace lasts.
	const writeShare = 1 - mixReadShare - mixCommitShare - mixMoveShare
	const eventShare = writeShare / (mixStepsPerEv + 1)
	nextEvent := make([]int, mixSessions)
	n := mixOpsPerConnPerSc * seconds
	for c := 0; c < conns; c++ {
		for j := 0; j < n; j++ {
			roll := rng.Float64()
			if roll < mixReadShare { // reads of any session
				kind := opBest
				if roll >= mixBestShare {
					kind = opSchedule
				}
				p.Conns[c] = append(p.Conns[c], op{Kind: kind, Session: all[zipfAll.Uint64()]})
				continue
			}
			roll -= mixReadShare
			i := owned[c][zipfOwn[c].Uint64()]
			sh := shapes[i]
			var o op
			switch {
			case roll < mixCommitShare:
				o = op{Kind: opCommit, Session: i, Move: sh.move(rng, true)}
			case roll < mixCommitShare+mixMoveShare:
				o = op{Kind: opMove, Session: i, Move: sh.move(rng, false)}
			case roll < mixCommitShare+mixMoveShare+eventShare && nextEvent[i] < len(p.Sessions[i].Events):
				o = op{Kind: opEvent, Session: i, Event: nextEvent[i]}
				sh.apply(p.Sessions[i].Events[nextEvent[i]])
				nextEvent[i]++
			default:
				o = op{Kind: opStep, Session: i}
			}
			p.Conns[c] = append(p.Conns[c], o)
		}
	}
	return p, nil
}

// ops returns the number of timed requests.
func (p *plan) ops() int {
	n := 0
	for _, c := range p.Conns {
		n += len(c)
	}
	return n
}
