package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// env is one benchmark invocation's settings.
type env struct {
	mshd   string // mshd binary under test
	runDir string // logs and stores of this invocation
}

// cluster is one workload's running daemons: the front daemon the load
// driver talks to, plus se-dist's workers.
type cluster struct {
	front   *daemon
	workers []*daemon
	ids     []string
}

func (c *cluster) daemons() []*daemon {
	return append(append([]*daemon(nil), c.workers...), c.front)
}

func (c *cluster) workerURLs() []string {
	urls := make([]string, len(c.workers))
	for i, w := range c.workers {
		urls[i] = w.url
	}
	return urls
}

func (c *cluster) stop() {
	for _, d := range c.daemons() {
		if d != nil {
			d.stop()
		}
	}
}

func (c *cluster) cpu() (time.Duration, error) {
	var total time.Duration
	for _, d := range c.daemons() {
		t, err := d.cpu()
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// pass is one execution of a plan's timed phase on a fresh cluster.
type pass struct {
	setups []float64 // seconds of each set-up; the last one is timed
	start  time.Time
	wall   time.Duration
	cpu    time.Duration
	steal  float64 // share of the host's CPU time stolen during the timed phase, %
	rssMB  float64
	warm   []result
	res    [][]result
	finals []serve.Result
	// Traced passes only: per daemon, /metrics and runtime memory
	// statistics before and after the timed phase.
	before, after       []metricSet
	memBefore, memAfter []memStats
}

// daemonArgs are the front daemon's flags for plan p.
func daemonArgs(p *plan, dataDir string) []string {
	args := []string{"-max-sessions", strconv.Itoa(p.MaxSessions)}
	if p.Durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "never")
	}
	return args
}

// prepare runs a durable plan's untimed warm phase: it creates and opens
// every session, issues the warm ops, and stops the daemon, which spills
// every session into the store for the timed set-ups to replay.
func (e *env) prepare(ctx context.Context, p *plan, dataDir string) ([]string, []result, error) {
	d, err := startDaemon(e.mshd, "warm", e.runDir, daemonArgs(p, dataDir)...)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	ids, err := openSessions(ctx, d.url, p, nil)
	if err != nil {
		return nil, nil, err
	}
	warm := make([]result, len(p.Warm))
	newDriver(p, d.url, ids, nil).stream(ctx, "warm", p.Warm, warm)
	for j := range warm {
		if warm[j].err != nil {
			return nil, nil, fmt.Errorf("warm op %d: %w", j, warm[j].err)
		}
	}
	return ids, warm, nil
}

// bringUp is one set-up: it launches the plan's daemons and brings every
// session to the start of the timed phase — created with its search open,
// or, for a durable plan, recovered by boot replay of the warm store.
func (e *env) bringUp(ctx context.Context, p *plan, dataDir string, ids []string, debug bool) (*cluster, time.Duration, error) {
	start := time.Now()
	c := &cluster{}
	for k := 0; k < p.Workers; k++ {
		d, err := startDaemon(e.mshd, fmt.Sprintf("worker%d", k), e.runDir, debugArgs(debug, "-max-sessions", "1024")...)
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.workers = append(c.workers, d)
	}
	front, err := startDaemon(e.mshd, "front", e.runDir, debugArgs(debug, daemonArgs(p, dataDir)...)...)
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	c.front = front
	if p.Durable {
		// The daemon answers its health check only after boot replay.
		want := min(len(p.Sessions), p.MaxSessions)
		if got, err := recovered(front.url); err != nil || got != want {
			c.stop()
			return nil, 0, fmt.Errorf("boot replay recovered %d sessions, want %d (%v)", got, want, err)
		}
		c.ids = ids
	} else if c.ids, err = openSessions(ctx, front.url, p, c.workerURLs()); err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// debugArgs adds a -debug-addr listener when debug is set, so traced
// passes can read the daemons' runtime memory statistics.
func debugArgs(debug bool, args ...string) []string {
	if !debug {
		return args
	}
	port, err := freePort()
	if err != nil {
		return args
	}
	return append(args, "-debug-addr", fmt.Sprintf("127.0.0.1:%d", port))
}

func recovered(url string) (int, error) {
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h.RecoveredSessions, err
}

// runPass sets the plan up `setups` times (keeping the last), runs the
// timed phase and collects what the checks and metrics need. The cluster
// is returned still running; the caller stops it.
func (e *env) runPass(ctx context.Context, p *plan, tag string, setups int, rec *recorder) (*pass, *cluster, error) {
	ps := &pass{}
	dataDir := filepath.Join(e.runDir, "store-"+tag)
	var ids []string
	if p.Durable {
		var err error
		if ids, ps.warm, err = e.prepare(ctx, p, dataDir); err != nil {
			return nil, nil, fmt.Errorf("warm phase: %w", err)
		}
	}
	var c *cluster
	for k := 0; k < setups; k++ {
		if c != nil {
			c.stop()
		}
		var took time.Duration
		var err error
		if c, took, err = e.bringUp(ctx, p, dataDir, ids, rec != nil); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		ps.setups = append(ps.setups, took.Seconds())
	}

	fail := func(err error) (*pass, *cluster, error) {
		c.stop()
		return nil, nil, err
	}
	if rec != nil {
		for _, d := range c.daemons() {
			m, err := d.scrape()
			if err != nil {
				return fail(err)
			}
			ps.before = append(ps.before, m)
			ps.memBefore = append(ps.memBefore, d.memStats())
		}
	}
	cpu0, err := c.cpu()
	if err != nil {
		return fail(err)
	}
	total0, steal0 := hostCPU()
	ps.res, ps.start, ps.wall = newDriver(p, c.front.url, c.ids, rec).run(ctx)
	total1, steal1 := hostCPU()
	cpu1, err := c.cpu()
	if err != nil {
		return fail(err)
	}
	ps.cpu = cpu1 - cpu0
	if total1 > total0 {
		ps.steal = 100 * (steal1 - steal0) / (total1 - total0)
	}
	for _, d := range c.daemons() {
		mb, err := d.peakRSS()
		if err != nil {
			return fail(err)
		}
		ps.rssMB += mb
	}
	if rec != nil {
		for _, d := range c.daemons() {
			m, err := d.scrape()
			if err != nil {
				return fail(err)
			}
			ps.after = append(ps.after, m)
			ps.memAfter = append(ps.memAfter, d.memStats())
		}
	}
	if ps.finals, err = finalBests(ctx, c.front.url, c.ids); err != nil {
		return fail(err)
	}
	return ps, c, nil
}

// memStats is the part of a daemon's runtime.MemStats the traced run
// reports.
type memStats struct {
	TotalAlloc, NumGC float64
}

// memStats reads the daemon's runtime memory statistics from the heap
// profile's text form on its debug listener; zero without one.
func (d *daemon) memStats() memStats {
	var ms memStats
	if d.debugURL == "" {
		return ms
	}
	resp, err := http.Get(d.debugURL + "/debug/pprof/heap?debug=1")
	if err != nil {
		return ms
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		switch k {
		case "TotalAlloc":
			ms.TotalAlloc = f
		case "NumGC":
			ms.NumGC = f
		}
	}
	return ms
}
