// Snapshot byte goldens: the SHA-256 of every registered metaheuristic's
// snapshot, taken right after Open on a fixed generated workload. The
// ledger gates only snapshot sizes, so a reordered or re-encoded field of
// the same width would pass it; these hashes pin the bytes themselves.
// Snapshots are hashed before the first Step because every Step adds
// wall-clock time to the encoded elapsed field.
package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	_ "repro/internal/dist"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// snapshotGoldens maps each algorithm to its snapshot's SHA-256. se,
// se-ils and se-live share the core payload (SEEN) and differ only in the
// envelope's registry name; se-shard and se-dist embed SEEN region
// payloads. se-dist runs in-process, and both sharded engines get a pinned
// shard count, because the adaptive count depends on GOMAXPROCS. The se,
// se-ils and se-live values were also produced by the code before SAEN,
// TBEN and GAEN moved to version 4 and SHEN to version 3: that change
// left SEEN byte-identical.
var snapshotGoldens = map[string]string{
	"se":       "af6b61cdf772c7fe67f56d783f83e278a56cdeb044211ab0776f7b97dba94293",
	"se-ils":   "edd16de87ce6f6d619f577f257b9a957e0dd04603900a64832bd82b841b7d436",
	"se-live":  "443012ebdc58a2dfebb0ca8eac8da03efae494f6d8a6924d5e95d7514a35d39e",
	"se-shard": "f79adfcf96a0ec03d7fd8c44fbb285a39615886a044e707a78fbdd32a57d712b",
	"se-dist":  "6750efb338953c850d7af024e9f9157fde81a981bfaffa4ccc7cdf645344248f",
	"sa":       "16dc598104dfff943a3b03119e09d6c6fbd6987f4ae3e9539760afd2bf66e523",
	"tabu":     "ed227029f1a519bcf9c95523cfc4df4d6bc4e2a8d00d2dfff349cd8056d051c9",
	"ga":       "d1a522a32aaca6f6921993ae9a456a743869e9a4f0c1bf1fc17f060b3ee58ac0",
}

func TestSnapshotByteGoldens(t *testing.T) {
	w := workload.MustGenerate(workload.Params{
		Tasks: 40, Machines: 5, Connectivity: 2, Heterogeneity: 6, CCR: 0.5, Seed: 11,
	})
	for name, want := range snapshotGoldens {
		s, err := scheduler.Open(name, w.Graph, w.System, scheduler.WithSeed(5), scheduler.WithShards(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: snapshot (%d bytes) SHA-256 = %s, want %s", name, len(data), got, want)
		}
	}
}
