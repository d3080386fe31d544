package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFixedWorkLedgerIsPerBuild pins that the fixed-work check compares
// runs of one build and plan only: a second build may do different work
// on the same seed without failing, and a rerun of either build must
// repeat its own record.
func TestFixedWorkLedgerIsPerBuild(t *testing.T) {
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "mshd-parent"), filepath.Join(dir, "mshd-change")
	if err := os.WriteFile(parent, []byte("parent build"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(change, []byte("change build"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := newPlan("dist-2w", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, "fixedwork")
	a := fixedWork{Generations: 64, Genes: 1000}
	b := fixedWork{Generations: 64, Genes: 900}

	if err := checkFixedWork(ledger, parent, p, a); err != nil {
		t.Fatalf("first run of the parent: %v", err)
	}
	if err := checkFixedWork(ledger, change, p, b); err != nil {
		t.Fatalf("a build with different effort failed against another build's record: %v", err)
	}
	if err := checkFixedWork(ledger, parent, p, a); err != nil {
		t.Fatalf("rerun of the parent with the same effort: %v", err)
	}
	if err := checkFixedWork(ledger, change, p, a); err == nil {
		t.Fatal("a rerun of one build with different effort passed")
	}
	q, err := newPlan("dist-2w", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFixedWork(ledger, parent, q, b); err != nil {
		t.Fatalf("another seed's plan shares a record: %v", err)
	}
}
