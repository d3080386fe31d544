package dist

// Worker-pool bookkeeping: per-worker health (consecutive failures drive
// an exponential cooldown), a latency EWMA that sets the straggler hedge
// delay, and least-loaded placement over the healthy workers.

import (
	"sync"
	"time"

	"repro/internal/serve"
)

const (
	// failCooldownBase and failCooldownMax bound the per-worker cooldown
	// after consecutive failures: 250ms doubling to 4s.
	failCooldownBase = 250 * time.Millisecond
	failCooldownMax  = 4 * time.Second
	// hedgeFloor is the minimum straggler hedge delay — below this the
	// duplicate RPC costs more than the wait.
	hedgeFloor = 100 * time.Millisecond
	// hedgeLatencyFactor scales the worker's latency EWMA into its hedge
	// delay: a round 4× slower than the worker's norm is a straggler.
	hedgeLatencyFactor = 4
)

// worker is one mshd daemon in the pool.
type worker struct {
	url    string
	client *serve.Client
	met    *distMetrics // health/latency/load gauges

	mu            sync.Mutex
	fails         int           // consecutive failures
	cooldownUntil time.Time     // unhealthy until then
	ewma          time.Duration // smoothed step-RPC latency
	load          int           // regions currently placed here
}

// healthy reports whether the worker is accepting dispatches (not in a
// failure cooldown).
func (w *worker) healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Now().After(w.cooldownUntil)
}

// ok records a successful RPC: failures reset and the latency EWMA
// absorbs d (¾ old, ¼ new).
func (w *worker) ok(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails = 0
	w.cooldownUntil = time.Time{}
	if w.ewma == 0 {
		w.ewma = d
	} else {
		w.ewma = (3*w.ewma + d) / 4
	}
	w.met.workerHealthy.With(w.url).Set(1)
	w.met.workerLatency.With(w.url).Set(w.ewma.Seconds())
}

// fail records a failed RPC and puts the worker in an exponentially
// growing cooldown, so a dead worker stops absorbing one timeout per
// region per round.
func (w *worker) fail() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails++
	d := failCooldownBase << min(w.fails-1, 4)
	if d > failCooldownMax {
		d = failCooldownMax
	}
	w.cooldownUntil = time.Now().Add(d)
	w.met.workerHealthy.With(w.url).Set(0)
	w.met.workerFailures.With(w.url).Inc()
}

// placed adjusts the worker's placement load by delta.
func (w *worker) placed(delta int) {
	w.mu.Lock()
	w.load += delta
	load := w.load
	w.mu.Unlock()
	w.met.workerLoad.With(w.url).Set(float64(load))
}

// hedgeDelay returns how long a step RPC may run before the coordinator
// speculatively re-issues the round elsewhere; 0 disables hedging until a
// latency baseline exists.
func (w *worker) hedgeDelay() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ewma == 0 {
		return 0
	}
	d := hedgeLatencyFactor * w.ewma
	if d < hedgeFloor {
		d = hedgeFloor
	}
	return d
}

// loadNow reads the worker's placement load.
func (w *worker) loadNow() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.load
}

// pool is the coordinator's worker set.
type pool struct {
	workers []*worker
	mu      sync.Mutex
	next    int // round-robin cursor breaking load ties
}

// newPool builds a pool of clients for the given base URLs, each with a
// per-request timeout so a hung worker surfaces as a retriable error.
func newPool(urls []string, timeout time.Duration, met *distMetrics) *pool {
	p := &pool{workers: make([]*worker, len(urls))}
	for i, u := range urls {
		p.workers[i] = &worker{url: u, client: serve.NewClient(u).WithTimeout(timeout), met: met}
		// Seed the gauges, so a scrape before the first round already
		// lists every configured worker.
		met.workerHealthy.With(u).Set(1)
		met.workerLoad.With(u).Set(0)
	}
	return p
}

// pick returns the least-loaded healthy worker other than exclude,
// breaking ties round-robin; nil when every candidate is cooling down.
func (p *pool) pick(exclude *worker) *worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.workers)
	var best *worker
	bestLoad := 0
	for i := 0; i < n; i++ {
		w := p.workers[(p.next+i)%n]
		if w == exclude || !w.healthy() {
			continue
		}
		if l := w.loadNow(); best == nil || l < bestLoad {
			best, bestLoad = w, l
		}
	}
	p.next++
	return best
}
