package live

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/workload"
)

// FuzzApplyEvent feeds arbitrary bytes to Problem.Apply, decoded the way
// the serving layer's /events endpoint decodes a body: up to three JSON
// events in a row, applied in turn to a small generated problem. Apply
// must never panic. A rejected event must leave the problem's workload
// document byte-identical, and an accepted one must leave a workload that
// encodes, decodes and rebuilds through NewProblem into the same document
// — the round trip a session's spill and revive depend on.
func FuzzApplyEvent(f *testing.F) {
	w := workload.MustGenerate(baseParams())
	tr, err := GenerateTrace(TraceParams{Base: baseParams(), Events: 8, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	for _, ev := range tr.Events {
		data, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Costs that overflow on arrival or on a speed change, and two
	// speed-ups that underflow execution times to zero.
	f.Add([]byte(`{"kind":"task_arrival","tasks":[{"exec":[1e308,1e308,1e308,1e308]}]}`))
	f.Add([]byte(`{"kind":"machine_speed","machine":0,"factor":1e308}`))
	f.Add([]byte(`{"kind":"machine_speed","machine":0,"factor":1e-200}{"kind":"machine_speed","machine":0,"factor":1e-200}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewProblem(w)
		dec := json.NewDecoder(bytes.NewReader(data))
		for i := 0; i < 3; i++ {
			var ev Event
			if dec.Decode(&ev) != nil {
				return
			}
			before := encodeWorkload(t, p.Workload())
			if _, err := p.Apply(ev); err != nil {
				if after := encodeWorkload(t, p.Workload()); !bytes.Equal(before, after) {
					t.Fatalf("rejected event %d (%v) changed the workload document", i, err)
				}
				continue
			}
			doc := encodeWorkload(t, p.Workload())
			w2, err := workload.Decode(bytes.NewReader(doc))
			if err != nil {
				t.Fatalf("event %d: the amended workload does not decode: %v", i, err)
			}
			if again := encodeWorkload(t, NewProblem(w2).Workload()); !bytes.Equal(doc, again) {
				t.Fatalf("event %d: the amended workload does not rebuild into the same document", i)
			}
		}
	})
}

// FuzzDecodeTrace feeds arbitrary bytes to DecodeTrace, the parser behind
// mshc -trace. It must never panic, every accepted trace must keep its
// ticks within MaxTick, and an accepted trace must be a fixed point of the
// encoding: re-encoded, it decodes again and encodes to the same bytes.
func FuzzDecodeTrace(f *testing.F) {
	tr, err := GenerateTrace(TraceParams{Base: baseParams(), Events: 6, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	base, err := json.Marshal(baseParams())
	if err != nil {
		f.Fatal(err)
	}
	// One event at the largest int tick, which overflows a replay's span,
	// one at 9.2e18, which would replay practically forever, and one at
	// MaxTick, the largest accepted.
	for _, tick := range []string{"9223372036854775807", "9200000000000000000", "65536"} {
		f.Add([]byte(`{"name":"x","base":` + string(base) + `,"events":[{"tick":` + tick + `,"kind":"machine_leave"}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if last := tr.LastTick(); last > MaxTick {
			t.Fatalf("accepted a trace whose last tick %d exceeds MaxTick", last)
		}
		var a, b bytes.Buffer
		if err := EncodeTrace(&a, tr); err != nil {
			t.Fatalf("EncodeTrace: %v", err)
		}
		again, err := DecodeTrace(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("the re-encoded trace is rejected: %v", err)
		}
		if err := EncodeTrace(&b, again); err != nil {
			t.Fatalf("EncodeTrace: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("the trace changed through encode and decode:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
		}
	})
}

func encodeWorkload(t *testing.T, w *workload.Workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := workload.Encode(&buf, w); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}
