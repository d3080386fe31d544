package main

import (
	"strings"
	"testing"
	"time"
)

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},  // overlaps ID 2: 10..50 covered once
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent: 90..100 counts
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
	}
	st := selfTimes(spans)
	if got := st["root"].Self; got != 50 {
		t.Errorf("root self = %v, want 50 (100 − 40 − 10)", got)
	}
	if got := st["a"]; got.N != 2 || got.Dur != 50 || got.Self != 40 {
		t.Errorf("a = %+v, want 2 spans, 50 duration, 40 self", got)
	}
	if got := meanSelf(st, "a", time.Nanosecond); got != 20 {
		t.Errorf("mean self of a = %v, want 20", got)
	}
	if got := meanSelf(st, "missing", time.Nanosecond); got != 0 {
		t.Errorf("mean self of an absent span = %v", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", "op", 0)
	r.end(id)
	ran := false
	r.time("y", "op", 0, func() { ran = true })
	if id != 0 || !ran {
		t.Errorf("nil recorder: id %d, fn ran %v", id, ran)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", "op-1", 0)
	r.time("child", "op-1", root, func() { time.Sleep(time.Millisecond) })
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[1].Op != "op-1" {
		t.Fatalf("spans = %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP serve_http_request_duration_seconds x
# TYPE serve_http_request_duration_seconds histogram
serve_http_request_duration_seconds_sum{endpoint="POST /v1/sessions/{id}/search/step"} 1.5
serve_http_request_duration_seconds_count{endpoint="POST /v1/sessions/{id}/search/step"} 3
serve_http_request_duration_seconds_count{endpoint="GET /v1/sessions/{id}/schedule"} 4
dist_rounds_total 12
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.sum("serve_http_request_duration_seconds_count"); got != 7 {
		t.Errorf("count over endpoints = %v, want 7", got)
	}
	if got := m.sum("serve_http_request_duration_seconds_sum", `endpoint="POST /v1/sessions/{id}/search/step"`); got != 1.5 {
		t.Errorf("step sum = %v", got)
	}
	before := metricSet{"dist_rounds_total": 5}
	if got := m.delta(before).sum("dist_rounds_total"); got != 7 {
		t.Errorf("delta rounds = %v, want 7", got)
	}
}
