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

func encodeWorkload(t *testing.T, w *workload.Workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := workload.Encode(&buf, w); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}
