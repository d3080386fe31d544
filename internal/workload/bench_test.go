package workload

import (
	"bytes"
	"testing"
)

// BenchmarkDecode times Decode on the two uploaded document classes the
// end-to-end benchmark sends: the 150-task, 20-machine high-connectivity
// DAG of its search-heavy workload (about 3 MB indented) and the medium
// preset (60 × 12) of its dist workload.
func BenchmarkDecode(b *testing.B) {
	heavy := MustGenerate(Params{Tasks: 150, Machines: 20,
		Connectivity: HighConnectivity, Heterogeneity: HighHeterogeneity, CCR: 0.5, Seed: 1})
	medium, err := Preset("medium")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		w    *Workload
	}{{"150x20", heavy}, {"medium", medium}} {
		var buf bytes.Buffer
		if err := Encode(&buf, c.w); err != nil {
			b.Fatal(err)
		}
		doc := buf.Bytes()
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Decode(bytes.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
