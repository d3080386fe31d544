package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Op ties the spans of one request or one replayed
// op together; Parent is the enclosing span's ID (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run writes them out once at
// exit. A nil recorder records nothing, which is how untraced runs pay
// nothing for the call sites.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name, op string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// time runs fn inside a span.
func (r *recorder) time(name, op string, parent int, fn func()) {
	id := r.begin(name, op, parent)
	fn()
	r.end(id)
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	N    int
	Self time.Duration // summed self time
	Dur  time.Duration // summed duration
}

// selfTimes returns, per span name, the count, summed duration and summed
// self time: a span's duration minus the part of it its child spans
// cover (overlapping children count once).
func selfTimes(spans []span) map[string]spanStat {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]spanStat{}
	for _, s := range spans {
		dur := s.End - s.Start
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		st := out[s.Name]
		st.N++
		st.Dur += time.Duration(dur)
		st.Self += time.Duration(dur - covered)
		out[s.Name] = st
	}
	return out
}

// meanSelf returns the mean self time of spans named name, in unit.
func meanSelf(stats map[string]spanStat, name string, unit time.Duration) float64 {
	st := stats[name]
	if st.N == 0 {
		return 0
	}
	return float64(st.Self) / float64(st.N) / float64(unit)
}
