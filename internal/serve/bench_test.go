package serve_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
	"repro/internal/workload"
)

// BenchmarkCreateSession times session creation from an upload end to
// end, as the benchmark's clients pay for it: a real Client encodes the
// request, it crosses loopback HTTP, and the daemon's handler decodes the
// workload, builds the constructive base and installs the session. The
// documents are workload.Decode's benchmark classes: the 150-task,
// 20-machine search-heavy upload and the medium preset.
func BenchmarkCreateSession(b *testing.B) {
	heavy := workload.MustGenerate(workload.Params{Tasks: 150, Machines: 20,
		Connectivity: workload.HighConnectivity, Heterogeneity: workload.HighHeterogeneity, CCR: 0.5, Seed: 1})
	medium, err := workload.Preset("medium")
	if err != nil {
		b.Fatal(err)
	}
	m := serve.NewManager(serve.Options{})
	defer m.Close()
	srv := httptest.NewServer(serve.NewServer(m))
	defer srv.Close()
	client := serve.NewClient(srv.URL)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		w    *workload.Workload
	}{{"150x20", heavy}, {"medium", medium}} {
		var buf bytes.Buffer
		if err := workload.Encode(&buf, c.w); err != nil {
			b.Fatal(err)
		}
		req := serve.CreateSessionRequest{Workload: buf.Bytes()}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			for b.Loop() {
				info, err := client.CreateSession(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := client.DeleteSession(ctx, info.ID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
