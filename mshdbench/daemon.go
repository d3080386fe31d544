package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is one mshd process on a loopback port.
type daemon struct {
	name     string
	cmd      *exec.Cmd
	url      string
	debugURL string // pprof listener, when started with -debug-addr
	log      *os.File
	done     chan struct{} // closed once the process has been waited for
	err      error         // the process's exit status, valid after done
}

// running tracks every live daemon, so an interrupted benchmark still
// stops each process it started.
var running = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin on a free loopback port with args and returns
// once /v1/healthz answers. A daemon that exits before it is healthy (say
// the port was taken in the meantime) is retried on a fresh port.
func startDaemon(bin, name, logDir string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := launch(bin, name, logDir, args)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func launch(bin, name, logDir string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-idle-timeout", "0"}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The kernel kills the daemon if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{name: name, cmd: cmd, url: "http://" + addr, log: logf, done: make(chan struct{})}
	for i, a := range args {
		if a == "-debug-addr" && i+1 < len(args) {
			d.debugURL = "http://" + args[i+1]
		}
	}
	running.Lock()
	running.set[d] = true
	running.Unlock()
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()

	cl := serve.NewClient(d.url).WithTimeout(time.Second)
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("%s exited before it was healthy: %v", name, d.err)
		default:
		}
		if cl.Health(context.Background()) == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s not healthy after 60s", name)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down with SIGTERM — it spills its sessions into
// its store and flushes — and kills it if it has not exited in 20 s.
// It returns once the process has ended.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
		select {
		case <-d.done:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.log.Close()
	running.Lock()
	delete(running.set, d)
	running.Unlock()
}

// stopAll stops every daemon still running.
func stopAll() {
	running.Lock()
	ds := make([]*daemon, 0, len(running.set))
	for d := range running.set {
		ds = append(ds, d)
	}
	running.Unlock()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
}

// cpu returns the process's CPU time (user and system) summed over its
// threads, in nanoseconds as the scheduler accounts it
// (/proc/<pid>/task/<tid>/schedstat). Go runtime threads live as long as
// the process, so no thread's time is lost to its exit.
func (d *daemon) cpu() (time.Duration, error) {
	select {
	case <-d.done:
		return 0, fmt.Errorf("%s exited during the run (%v); its log is %s", d.name, d.err, d.log.Name())
	default:
	}
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for %s: %v", d.name, err)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSS returns the process's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", d.name)
}

// scrape reads the daemon's /metrics exposition into a flat map keyed by
// the series as printed (name plus label set).
func (d *daemon) scrape() (metricSet, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", d.name, resp.Status)
	}
	return parseMetrics(resp.Body)
}

// metricSet is one scrape: series → value.
type metricSet map[string]float64

func parseMetrics(r io.Reader) (metricSet, error) {
	out := metricSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of family name whose labels contain all of the
// given label pairs (e.g. `endpoint="POST /v1/sessions/{id}/search/step"`).
func (m metricSet) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range m {
		series, lbl, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after − before for every series in after.
func (m metricSet) delta(before metricSet) metricSet {
	out := metricSet{}
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}
