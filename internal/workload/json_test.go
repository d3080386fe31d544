package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestJSONRoundTripFigure1(t *testing.T) {
	w := Figure1()
	var buf bytes.Buffer
	if err := Encode(&buf, w); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	assertWorkloadsEqual(t, w, got)
}

func TestJSONRoundTripGenerated(t *testing.T) {
	w := MustGenerate(Params{Tasks: 25, Machines: 6, Connectivity: 2.5, Heterogeneity: 8, CCR: 1, Seed: 17})
	var buf bytes.Buffer
	if err := Encode(&buf, w); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	assertWorkloadsEqual(t, w, got)
	if got.Params.Seed != 17 {
		t.Errorf("Params.Seed = %d, want 17", got.Params.Seed)
	}
}

func assertWorkloadsEqual(t *testing.T, want, got *Workload) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("Name = %q, want %q", got.Name, want.Name)
	}
	if got.Graph.NumTasks() != want.Graph.NumTasks() {
		t.Fatalf("NumTasks = %d, want %d", got.Graph.NumTasks(), want.Graph.NumTasks())
	}
	if got.Graph.NumItems() != want.Graph.NumItems() {
		t.Fatalf("NumItems = %d, want %d", got.Graph.NumItems(), want.Graph.NumItems())
	}
	for i, it := range want.Graph.Items() {
		if got.Graph.Items()[i] != it {
			t.Errorf("item %d = %+v, want %+v", i, got.Graph.Items()[i], it)
		}
	}
	for tk := 0; tk < want.Graph.NumTasks(); tk++ {
		if got.Graph.Name(taskID(tk)) != want.Graph.Name(taskID(tk)) {
			t.Errorf("task %d name differs", tk)
		}
	}
	we, ge := want.System.ExecMatrix(), got.System.ExecMatrix()
	if len(we) != len(ge) {
		t.Fatalf("machine counts differ: %d vs %d", len(ge), len(we))
	}
	for m := range we {
		for k := range we[m] {
			if we[m][k] != ge[m][k] {
				t.Errorf("exec[%d][%d] = %v, want %v", m, k, ge[m][k], we[m][k])
			}
		}
	}
	wt, gt := want.System.TransferMatrix(), got.System.TransferMatrix()
	if len(wt) != len(gt) {
		t.Fatalf("transfer rows differ: %d vs %d", len(gt), len(wt))
	}
	for p := range wt {
		for d := range wt[p] {
			if wt[p][d] != gt[p][d] {
				t.Errorf("transfer[%d][%d] = %v, want %v", p, d, gt[p][d], wt[p][d])
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	_, err := Decode(strings.NewReader("not json"))
	if err == nil || !strings.Contains(err.Error(), "decode") {
		t.Errorf("Decode garbage: err = %v", err)
	}
}

func TestDecodeRejectsEmptyTasks(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"name":"x","tasks":[],"items":[],"exec":[],"transfer":[]}`))
	if err == nil || !strings.Contains(err.Error(), "no tasks") {
		t.Errorf("Decode empty: err = %v", err)
	}
}

func TestDecodeRejectsCyclicItems(t *testing.T) {
	src := `{
		"name": "cyclic",
		"tasks": ["a", "b"],
		"items": [
			{"producer": 0, "consumer": 1, "size": 1},
			{"producer": 1, "consumer": 0, "size": 1}
		],
		"exec": [[1, 1]],
		"transfer": []
	}`
	_, err := Decode(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Decode cyclic: err = %v", err)
	}
}

func TestDecodeRejectsBadMatrix(t *testing.T) {
	src := `{
		"name": "bad",
		"tasks": ["a", "b"],
		"items": [],
		"exec": [[1]],
		"transfer": []
	}`
	_, err := Decode(strings.NewReader(src))
	if err == nil {
		t.Error("Decode accepted ragged exec matrix")
	}
}

// --- untrusted-upload error paths (the serving layer decodes uploads) ---

func TestDecodeRejectsTruncatedInput(t *testing.T) {
	w := MustGenerate(Params{Tasks: 12, Machines: 4, Connectivity: 2, Heterogeneity: 4, CCR: 0.5, Seed: 3})
	var buf bytes.Buffer
	if err := Encode(&buf, w); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	full := buf.String()
	// Cut the document at several points, including mid-token and just
	// before the closing brace; every truncation must fail cleanly.
	for _, frac := range []float64{0.1, 0.5, 0.9, 0.999} {
		cut := int(float64(len(full)) * frac)
		if _, err := Decode(strings.NewReader(full[:cut])); err == nil {
			t.Errorf("Decode accepted input truncated to %d/%d bytes", cut, len(full))
		}
	}
}

func TestDecodeRejectsUnknownTaskReferences(t *testing.T) {
	for _, tc := range []struct {
		name, items string
	}{
		{"producer-too-big", `[{"producer": 7, "consumer": 1, "size": 1}]`},
		{"consumer-too-big", `[{"producer": 0, "consumer": 9, "size": 1}]`},
		{"producer-negative", `[{"producer": -1, "consumer": 1, "size": 1}]`},
		{"consumer-negative", `[{"producer": 0, "consumer": -3, "size": 1}]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := `{"name":"x","tasks":["a","b"],"items":` + tc.items + `,"exec":[[1,1]],"transfer":[]}`
			_, err := Decode(strings.NewReader(src))
			if err == nil || !strings.Contains(err.Error(), "references no task") {
				t.Errorf("Decode: err = %v, want unknown-task-reference error", err)
			}
		})
	}
}

func TestDecodeRejectsNegativeCosts(t *testing.T) {
	t.Run("exec", func(t *testing.T) {
		src := `{"name":"x","tasks":["a","b"],"items":[],"exec":[[1,-2]],"transfer":[]}`
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Error("Decode accepted a negative execution time")
		}
	})
	t.Run("transfer", func(t *testing.T) {
		src := `{
			"name": "x", "tasks": ["a", "b"],
			"items": [{"producer": 0, "consumer": 1, "size": 1}],
			"exec": [[1, 1], [2, 2]],
			"transfer": [[-5]]
		}`
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Error("Decode accepted a negative transfer time")
		}
	})
	t.Run("item-size", func(t *testing.T) {
		src := `{
			"name": "x", "tasks": ["a", "b"],
			"items": [{"producer": 0, "consumer": 1, "size": -1}],
			"exec": [[1, 1], [2, 2]],
			"transfer": [[5]]
		}`
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Error("Decode accepted a non-positive item size")
		}
	})
}

func TestDecodeRejectsWrongTransferShape(t *testing.T) {
	// Two machines → one pair row; a three-row transfer matrix references
	// machine pairs that do not exist.
	src := `{
		"name": "x", "tasks": ["a", "b"],
		"items": [{"producer": 0, "consumer": 1, "size": 1}],
		"exec": [[1, 1], [2, 2]],
		"transfer": [[1], [1], [1]]
	}`
	if _, err := Decode(strings.NewReader(src)); err == nil {
		t.Error("Decode accepted a transfer matrix with the wrong pair count")
	}
}

func TestDecodeRejectsEmptyExec(t *testing.T) {
	src := `{"name":"x","tasks":["a"],"items":[],"exec":[],"transfer":[]}`
	_, err := Decode(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "no machines") {
		t.Errorf("Decode: err = %v, want no-machines error", err)
	}
}

// TestJSONRoundTripProperty encodes and re-decodes randomly generated
// workloads across the generator's parameter space and requires the
// reconstruction to be exact — the serving layer's session-creation path
// is Decode∘Encode, so any loss here would silently change makespans.
func TestJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		p := Params{
			Tasks:         1 + rng.Intn(40),
			Machines:      1 + rng.Intn(10),
			Connectivity:  rng.Float64() * 4,
			Heterogeneity: 1 + rng.Float64()*15,
			CCR:           rng.Float64(),
			Seed:          rng.Int63n(1 << 30),
		}
		w, err := Generate(p)
		if err != nil {
			t.Fatalf("trial %d: Generate(%+v): %v", trial, p, err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, w); err != nil {
			t.Fatalf("trial %d: Encode: %v", trial, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("trial %d: Decode: %v", trial, err)
		}
		assertWorkloadsEqual(t, w, got)
		if got.Params != w.Params {
			t.Errorf("trial %d: Params = %+v, want %+v", trial, got.Params, w.Params)
		}
	}
}

// referenceParse is the encoding/json decode Decode replaced, kept as the
// oracle parseDocument is checked against.
func referenceParse(doc []byte) (fileFormat, error) {
	var ff fileFormat
	err := json.NewDecoder(bytes.NewReader(doc)).Decode(&ff)
	return ff, err
}

// sameDocument reports whether two parsed documents are identical bit for
// bit, telling nil slices from empty ones and -0 from 0.
func sameDocument(a, b fileFormat) bool {
	sameF := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameRows := func(x, y [][]float64) bool {
		if len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if len(x[i]) != len(y[i]) || (x[i] == nil) != (y[i] == nil) {
				return false
			}
			for j := range x[i] {
				if !sameF(x[i][j], y[i][j]) {
					return false
				}
			}
		}
		return true
	}
	pa, pb := a.Params, b.Params
	if a.Name != b.Name || pa.Tasks != pb.Tasks || pa.Machines != pb.Machines || pa.Layers != pb.Layers || pa.Seed != pb.Seed ||
		!sameF(pa.Connectivity, pb.Connectivity) || !sameF(pa.Heterogeneity, pb.Heterogeneity) ||
		!sameF(pa.TaskRange, pb.TaskRange) || !sameF(pa.CCR, pb.CCR) || !sameF(pa.Scale, pb.Scale) {
		return false
	}
	if !slices.Equal(a.Tasks, b.Tasks) || (a.Tasks == nil) != (b.Tasks == nil) {
		return false
	}
	if len(a.Items) != len(b.Items) || (a.Items == nil) != (b.Items == nil) {
		return false
	}
	for i, it := range a.Items {
		o := b.Items[i]
		if it.Producer != o.Producer || it.Consumer != o.Consumer || !sameF(it.Size, o.Size) {
			return false
		}
	}
	return sameRows(a.Exec, b.Exec) && sameRows(a.Transfer, b.Transfer)
}

// fuzzSeeds are hostile and corner-case documents for FuzzDecode, each
// probing one place where a hand-written reader could part from
// encoding/json.
var fuzzSeeds = []string{
	strings.Repeat("[", 10001),
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"exec":[[1e400]]}`,
	`{"exec":[[1e-400, -1e-400]]}`,
	`{"exec":[[-0, 0, -0.0e-0, 1E+2]]}`,
	`{"tasks":["\ud800", "\udc00\ud800", "\ud83d\ude00", "\ud800\u0041", "\ud800\n"]}`,
	"{\"tasks\":[\"a\xff\xfeb\", \"\xed\xa0\x80\", \"\xf0\x9f\x98\", \"\u00e9\"]}",
	`{"ta\u017fK\u017f":["a"], "EXEC":[[1]], "Params":{"SEED":3, "ccr":0.5, "tas\u212a\u017f":2}}`,
	"{\"ta\u017f\u212a\u017f\":[\"a\"]}",
	`{"tasks":[null, "a"], "items":[null], "exec":[null, [null, 1]], "transfer":null, "params":null, "name":null}`,
	`{"tasks":[],"items":[],"exec":[],"transfer":[]}`,
	`{"tasks":["a"],"exec":[[1]]} trailing bytes`,
	`{"tasks":["a"],"exec":[[1]]}{"tasks":["b"]}`,
	`{"items":[{"producer":0,"consumer":1,"size":1}],"items":[{"producer":1}]}`,
	`{"tasks":["a"],"TASKS":["b","c"]}`,
	`{"params":{"Seed":1,"seed":2}}`,
	`{"items":[{"producer":1.0}]}`,
	`{"items":[{"producer":1e2}]}`,
	`{"params":{"Seed":9223372036854775808}}`,
	`{"params":{"Tasks":-9223372036854775808}}`,
	`{"tasks":"a"}`,
	`{"exec":[["1"]]}`,
	`{"exec":[[true]]}`,
	`{"unknown":{"a":[1,{"b":null}],"c":"\u0000"},"tasks":["a"],"exec":[[2]]}`,
	`  {"tasks" : [ "a" ] , "exec" : [ [ 1 ] ] }  `,
	`{"tasks":["a"],}`,
	`{"tasks":["a"],"exec":[[01]]}`,
	`{"tasks":["a\x"]}`,
	"{\"tasks\":[\"a\tb\"]}",
	`null`,
	`[]`,
	`"x"`,
	`nul`,
	// Shapes at the edges of the matrix row split, which the split must
	// refuse or read exactly as the sequential read does.
	`{"exec":[[1,"]"],[2,3]]}`,
	`{"exec":[[1,2],null,[3,4]]}`,
	`{"exec":[[1,2],[],[3,4]]}`,
	`{"exec":[[1,2] [3,4],[5,6]]}`,
	`{"exec":[[1,2][3,4]]}`,
	`{"exec":[[1,2];[3,4]]}`,
	`{"exec":[[1,2],,[3,4]]}`,
	`{"exec":[[1,2],[3,4],]}`,
	`{"exec":[[1,2],[3,4]`,
	"{\"exec\":\x9b[],[3]], \"t]], \"trra\x89sfer\":[[[2]]}",
	`{"exec":x[1],[2]]}`,
	`{"exec":[[1],[2],[3]], "transfer":[[1e400],[2]]}`,
	`{"exec":[[1,2,3]]}`,
	`{"exec":[[1],[` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `]]}`,
	`{"exec":[[1],[2,[3]],[4]]}`,
	"{\"exec\":[[null,1],[2,null]], \"transfer\":[ [ 1 , 2 ] ,\n\t[3,4]\r]}",
}

// FuzzDecode feeds arbitrary bytes — seeded with real documents,
// truncations of them and fuzzSeeds — through Decode, the entry point for
// uploaded workloads. The one-pass reader must agree with encoding/json,
// the reader it replaced: both accept or both reject, and what they accept
// they read identically, bit for bit. The one documented difference is a
// repeated schema member, which encoding/json merges and Decode rejects.
// The matrix row split, forced on every matrix of two rows or more, must
// give the sequential read's result and error text exactly.
// Every document Decode accepts must also have a canonical encoding:
// decoding Encode's output and encoding it again reproduces it byte for
// byte, so a document re-derived from a decoded workload is stable.
func FuzzDecode(f *testing.F) {
	for _, w := range []*Workload{
		Figure1(),
		MustGenerate(Params{Tasks: 8, Machines: 3, Connectivity: 2, Heterogeneity: 4, CCR: 0.5, Seed: 1}),
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, w); err != nil {
			f.Fatal(err)
		}
		doc := buf.Bytes()
		f.Add(doc)
		f.Add(doc[:len(doc)/2])
		f.Add(doc[:len(doc)-3])
	}
	f.Add([]byte{})
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		ff, err := parseDocumentOn(doc, 1, matrixChunkBytes)
		split, splitErr := parseDocumentOn(doc, 3, 1)
		if fmt.Sprint(splitErr) != fmt.Sprint(err) || !sameDocument(split, ff) {
			t.Fatalf("row split read %+v, %v; sequential read %+v, %v\n%q", split, splitErr, ff, err, doc)
		}
		if errors.Is(err, errRepeated) {
			return
		}
		ref, refErr := referenceParse(doc)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("one-pass reader err = %v, encoding/json err = %v\n%q", err, refErr, doc)
		}
		if err != nil {
			return
		}
		if !sameDocument(ff, ref) {
			t.Fatalf("one-pass reader read %+v, encoding/json %+v\n%q", ff, ref, doc)
		}

		w, err := Decode(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Encode(&first, w); err != nil {
			t.Fatalf("Encode of an accepted document: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Decode rejects Encode's output: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Encode(&second, again); err != nil {
			t.Fatalf("Encode after re-decoding: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not canonical:\n%s\nre-encodes as\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestRowSplitMatchesSequentialRead decodes every preset and the 150 × 20
// search-heavy upload class (indented as Encode writes it, and compacted
// as a client may send it) at GOMAXPROCS 1 and 2, and requires the
// parallel read to equal the sequential one bit for bit, both as
// parseDocument chooses the split and with a three-way split forced on
// every matrix.
func TestRowSplitMatchesSequentialRead(t *testing.T) {
	type document struct {
		name string
		doc  []byte
	}
	var docs []document
	for _, name := range PresetNames() {
		w, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, w); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, document{name, buf.Bytes()})
	}
	var heavy, compact bytes.Buffer
	if err := Encode(&heavy, MustGenerate(Params{Tasks: 150, Machines: 20,
		Connectivity: HighConnectivity, Heterogeneity: HighHeterogeneity, CCR: 0.5, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, heavy.Bytes()); err != nil {
		t.Fatal(err)
	}
	docs = append(docs, document{"150x20", heavy.Bytes()}, document{"150x20/compact", compact.Bytes()})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, d := range docs {
		want, err := parseDocumentOn(d.doc, 1, matrixChunkBytes)
		if err != nil {
			t.Fatalf("%s: sequential read: %v", d.name, err)
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			if got, err := parseDocument(d.doc); err != nil || !sameDocument(got, want) {
				t.Errorf("GOMAXPROCS %d, %s: parseDocument differs from the sequential read (err %v)", procs, d.name, err)
			}
			if got, err := parseDocumentOn(d.doc, 3, 1); err != nil || !sameDocument(got, want) {
				t.Errorf("GOMAXPROCS %d, %s: a forced split differs from the sequential read (err %v)", procs, d.name, err)
			}
		}
	}
	// The 150 × 20 transfer matrix is large enough that parseDocument
	// splits it whenever two goroutines may run.
	at := bytes.Index(heavy.Bytes(), []byte(`"transfer":`)) + len(`"transfer":`)
	rows, end, ok := splitRows(heavy.Bytes(), skipSpace(heavy.Bytes(), at))
	if !ok || (end-at)/matrixChunkBytes < 2 || len(rows) < 2 {
		t.Errorf("150 x 20 transfer matrix: split %v, %d bytes in %d rows; want a split into at least two chunks", ok, end-at, len(rows))
	}
}
