package schedule

import (
	"repro/internal/snap"
	"repro/internal/taskgraph"
)

// AppendSnap writes s as a length-prefixed gene list — the shared String
// field encoding of every search-engine snapshot (see internal/snap).
func AppendSnap(w *snap.Writer, s String) {
	w.Int(len(s))
	for _, g := range s {
		w.Int(int(g.Task))
		w.Int(int(g.Machine))
	}
}

// ReadSnap decodes an AppendSnap field. Structural corruption latches the
// reader's error; semantic validity (topological order, machine ranges)
// is the caller's to check against its graph and system via Validate.
func ReadSnap(r *snap.Reader) String {
	n := r.Len(16) // each gene encodes as two 8-byte ints
	if r.Err() != nil {
		return nil
	}
	s := make(String, n)
	for i := range s {
		s[i] = Gene{Task: taskgraph.TaskID(r.Int()), Machine: taskgraph.MachineID(r.Int())}
	}
	return s
}

// AppendSnap writes the ledger's four counters — Full, Delta, Aborted,
// Genes — as the effort field every engine snapshot shares.
func (c EvalCounts) AppendSnap(w *snap.Writer) {
	w.U64(c.Full)
	w.U64(c.Delta)
	w.U64(c.Aborted)
	w.U64(c.Genes)
}

// ReadEvalCounts decodes an EvalCounts.AppendSnap field. Structural
// corruption latches the reader's error.
func ReadEvalCounts(r *snap.Reader) EvalCounts {
	var c EvalCounts
	c.Full = r.U64()
	c.Delta = r.U64()
	c.Aborted = r.U64()
	c.Genes = r.U64()
	return c
}
