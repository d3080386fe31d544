package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/workload"
)

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

// TestReviveWritesBackStoredDocument: a revived session writes the stored
// workload document back byte for byte instead of encoding its workload
// again. The stored document here is compact JSON, which Encode never
// writes, so a re-encode would show as indented bytes.
func TestReviveWritesBackStoredDocument(t *testing.T) {
	st := openRecordStore(t)
	m := NewManager(Options{MaxSessions: 1, Store: st})
	defer m.Close()
	info := createRecordSession(t, m, 41)
	var indented, compact bytes.Buffer
	if err := workload.Encode(&indented, workload.MustGenerate(recordParams(41))); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	doc := compact.Bytes()
	// Park the session holding the compact document: the second session
	// spills it, and the spill's record carries doc.
	if err := m.do(info.ID, func(s *Session) error { s.wdoc = doc; return nil }); err != nil {
		t.Fatal(err)
	}
	createRecordSession(t, m, 42)
	if got := storedRecord(t, st, info.ID).Workload; !bytes.Equal(got, doc) {
		t.Fatalf("spilled record holds a %d-byte document, want the %d-byte compact one", len(got), len(doc))
	}

	// Reviving it spills the other session and writes its first record.
	if _, err := m.Info(info.ID); err != nil {
		t.Fatal(err)
	}
	if got := storedRecord(t, st, info.ID).Workload; !bytes.Equal(got, doc) {
		t.Errorf("revived session's first record holds a %d-byte document, want the stored %d bytes", len(got), len(doc))
	}
	var held []byte
	if err := m.do(info.ID, func(s *Session) error { held = s.wdoc; return nil }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, doc) {
		t.Errorf("revived session caches a %d-byte document, want the stored %d bytes", len(held), len(doc))
	}
}
