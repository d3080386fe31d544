package dist

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/snap"
	"repro/internal/taskgraph"
)

// Snapshot format: the round batch plus the embedded sharded-engine
// snapshot. Bump the version on layout changes.
const (
	engineSnapMagic   = "DSEN"
	engineSnapVersion = 1
)

// encodeSnapshot writes the engine's state after syncLocal has installed
// the workers' latest region snapshots.
func (e *Engine) encodeSnapshot() ([]byte, error) {
	inner, err := e.local.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("dist: snapshot: %w", err)
	}
	w := snap.Borrow(engineSnapMagic, engineSnapVersion)
	w.Int(e.batch)
	w.Blob(inner)
	return w.Detach(), nil
}

// RestoreEngine rebuilds an Engine from a Snapshot against the same
// (graph, system) pair. The restored engine steps in-process — worker
// URLs are runtime configuration, not search state — and continues
// bit-identically: where generations execute never changes what they
// compute.
func RestoreEngine(data []byte, g *taskgraph.Graph, sys *platform.System) (*Engine, error) {
	r, err := snap.NewReader(data, engineSnapMagic, engineSnapVersion)
	if err != nil {
		return nil, fmt.Errorf("dist: restore: %w", err)
	}
	batch := r.Int()
	inner := r.BlobView()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("dist: restore: %w", err)
	}
	if batch < 1 || batch > serve.MaxStepsPerRequest {
		return nil, fmt.Errorf("dist: restore: round batch %d, want in [1, %d]", batch, serve.MaxStepsPerRequest)
	}
	local, err := shard.RestoreEngine(inner, g, sys)
	if err != nil {
		return nil, fmt.Errorf("dist: restore: %w", err)
	}
	return &Engine{local: local, batch: batch, met: newDistMetrics(nil)}, nil
}
