package serve

import "testing"

// TestStoreLessSessionEncodesNoDocument: without a durable store nothing
// reads a session's workload document, so creating a session, opening a
// search on it and stepping that search never encode one.
func TestStoreLessSessionEncodesNoDocument(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	info, err := m.Create(CreateSessionRequest{Preset: "medium"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenSearch(info.ID, RunRequest{Algorithm: "se", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StepSearch(info.ID, StepRequest{Steps: 2}); err != nil {
		t.Fatal(err)
	}
	var doc []byte
	if err := m.do(info.ID, func(s *Session) error { doc = s.wdoc; return nil }); err != nil {
		t.Fatal(err)
	}
	if doc != nil {
		t.Errorf("store-less session holds a %d-byte workload document, want none", len(doc))
	}
}
