package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// host is the fingerprint every result carries, so figures from different
// machines or toolchains are never compared unknowingly.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// hostCPU reads the aggregate "cpu" line of /proc/stat: total and steal
// ticks, steal being time the hypervisor ran another guest on our vCPUs.
func hostCPU() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// probeSink keeps the probe's results live so the compiler cannot drop
// the loops.
var probeSink float64

// chase is the probe's pointer-chasing ring: one random cycle (Sattolo's
// shuffle) over 16 MiB, beyond the private caches, built once per process.
var chase = sync.OnceValue(func() []uint32 {
	ring := make([]uint32, 4<<20)
	for i := range ring {
		ring[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
})

// probe times a fixed kernel of the benchmark's own and returns the median
// of five timings in milliseconds. The kernel is a dependent chain of
// float and integer operations followed by dependent loads around a ring
// larger than the caches, so it slows both when the host's cores slow and
// when neighbours crowd its memory system. It is taken before and after
// each run so a shift in host speed shows beside the figures it moved; it
// never filters or discards a run.
func probe() float64 {
	ring := chase()
	times := make([]float64, 5)
	for i := range times {
		start := time.Now()
		x, v := uint64(0x9E3779B97F4A7C15), 1.0
		for j := 0; j < 2_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v = math.Sqrt(v + float64(x>>40))
		}
		p := uint32(0)
		for j := 0; j < 200_000; j++ {
			p = ring[p]
		}
		probeSink += v + float64(p)
		times[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return median(times)
}
