package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/platform"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// TestCreateBodyRejectsAllButOneValue: a Workload that is not exactly one
// JSON value is refused before any request is sent, as json.Marshal
// refused it, so its bytes cannot close the workload member and add
// members of their own to the envelope.
func TestCreateBodyRejectsAllButOneValue(t *testing.T) {
	var sent atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent.Add(1)
		http.Error(w, "unexpected request", http.StatusTeapot)
	}))
	defer srv.Close()
	client := NewClient(srv.URL)
	for name, doc := range map[string]string{
		"injects-preset":  `{} , "preset":"small"`,
		"injects-params":  `null, "params":{"Tasks":3,"Machines":2}`,
		"trailing-bytes":  `{"tasks":["a"],"exec":[[1]]} trailing`,
		"second-value":    `{"tasks":["a"]}{"tasks":["b"]}`,
		"too-deep":        strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		"unclosed":        `{"tasks":["a"]`,
		"only-whitespace": " \n ",
	} {
		req := CreateSessionRequest{Workload: json.RawMessage(doc)}
		if _, err := json.Marshal(req); err == nil {
			t.Errorf("%s: json.Marshal accepts the document; the case tests nothing", name)
		}
		if _, err := createBody(req); err == nil {
			t.Errorf("%s: createBody accepted a document that is not one JSON value", name)
		}
		if _, err := client.CreateSession(context.Background(), req); err == nil {
			t.Errorf("%s: CreateSession succeeded", name)
		}
	}
	if n := sent.Load(); n != 0 {
		t.Errorf("%d requests reached the server, want 0", n)
	}
}

// TestCreateBodyReadsAsMarshal: the server reads the body createBody
// writes as it read json.Marshal's, though the workload document now
// arrives as given, not compacted and HTML-escaped; a request without a
// document is still byte for byte json.Marshal's.
func TestCreateBodyReadsAsMarshal(t *testing.T) {
	doc := escapedDocument(t)
	params := workload.Params{Tasks: 4, Machines: 2, Seed: 3}
	for name, req := range map[string]CreateSessionRequest{
		"document":         {Workload: doc},
		"with-initial":     {Workload: doc, Initial: "s0 m0 | s1 m0 | s2 m1"},
		"three-sources":    {Workload: doc, Preset: "small", Params: &params},
		"spaced":           {Workload: json.RawMessage(" \t\n" + string(doc) + "\r\n ")},
		"scalar":           {Workload: json.RawMessage(`"<&>\u2028"`)},
		"preset-only":      {Preset: "small"},
		"empty-workload":   {Workload: json.RawMessage{}, Preset: "small"},
		"params-and-start": {Params: &params, Initial: "<&>"},
	} {
		marshalled, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
		body, err := createBody(req)
		if err != nil {
			t.Fatalf("%s: createBody: %v", name, err)
		}
		if len(req.Workload) == 0 && !bytes.Equal(body, marshalled) {
			t.Errorf("%s: body %s, json.Marshal %s", name, body, marshalled)
		}
		got, err := decodeCreateRequest(body)
		if err != nil {
			t.Fatalf("%s: server rejects the body: %v\n%s", name, err, body)
		}
		want, err := decodeCreateRequest(marshalled)
		if err != nil {
			t.Fatalf("%s: server rejects json.Marshal's body: %v", name, err)
		}
		if !bytes.Equal(got.Workload, bytes.TrimSpace(req.Workload)) {
			t.Errorf("%s: server read workload %q, want the document as given", name, got.Workload)
		}
		if len(want.Workload) > 0 {
			var gotDoc, wantDoc any
			if err := json.Unmarshal(got.Workload, &gotDoc); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want.Workload, &wantDoc); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotDoc, wantDoc) {
				t.Errorf("%s: workload document reads %v, json.Marshal's %v", name, gotDoc, wantDoc)
			}
		}
		got.Workload, want.Workload = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: server reads %+v, from json.Marshal's body %+v", name, got, want)
		}
	}
}

// TestCreateBodyKeepsEscapedNames: task and workload names holding '<',
// '&' and U+2028, which encoding/json escaped on the way out, build the
// same workload from the verbatim upload as from json.Marshal's body.
func TestCreateBodyKeepsEscapedNames(t *testing.T) {
	doc := escapedDocument(t)
	read := func(body []byte) []byte {
		req, err := decodeCreateRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		w, err := buildWorkload(req)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := workload.Encode(&out, w); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	req := CreateSessionRequest{Workload: doc}
	marshalled, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(marshalled, []byte(`\u003c`)) || !bytes.Contains(marshalled, []byte(`\u2028`)) {
		t.Fatalf("json.Marshal no longer escapes the names; the test checks nothing:\n%s", marshalled)
	}
	body, err := createBody(req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := read(body), read(marshalled); !bytes.Equal(got, want) || !bytes.Equal(got, doc) {
		t.Errorf("uploaded workload reads\n%s\nfrom json.Marshal's body\n%s\nwant\n%s", got, want, doc)
	}
}

// escapedDocument encodes a three-task, two-machine workload whose names
// hold characters encoding/json escapes.
func escapedDocument(t *testing.T) []byte {
	t.Helper()
	b := taskgraph.NewBuilder(3)
	for _, name := range []string{"<load>", "a&b", "line\u2028sep"} {
		b.AddTask(name)
	}
	b.AddItem(0, 1, 2)
	b.AddItem(1, 2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.New(3, 2, [][]float64{{1, 2, 3}, {2, 3, 4}}, [][]float64{{1.5, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := workload.Encode(&doc, &workload.Workload{Name: "escapes <&>", Graph: g, System: sys}); err != nil {
		t.Fatal(err)
	}
	return doc.Bytes()
}

// TestCreateRejectsMalformedUploadOverHTTP: a malformed document the Go
// client would refuse to send still gets a 400 when it comes over raw
// HTTP, small or large enough for the decoder's row split.
func TestCreateRejectsMalformedUploadOverHTTP(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	medium, err := workload.Preset("medium")
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := workload.Encode(&doc, medium); err != nil {
		t.Fatal(err)
	}
	// A string closing the last transfer row, where a ']' can hide.
	last := bytes.LastIndex(doc.Bytes(), []byte("\n    ]\n  ]"))
	corrupt := string(doc.Bytes()[:last]) + `, "]"` + string(doc.Bytes()[last:])
	for name, body := range map[string]string{
		"unclosed-row":  `{"workload": {"tasks": ["a"], "exec": [[1]}`,
		"no-separator":  `{"workload": {"tasks": ["a"], "exec": [[1],[2] [3]]}}`,
		"trailing":      `{"workload": {"tasks": ["a"], "exec": [[1]]} trailing}`,
		"string-in-row": `{"workload": ` + corrupt + `}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, error %q (%v); want a 400", name, resp.StatusCode, eb.Error, err)
		}
	}
	if n := m.Len(); n != 0 {
		t.Errorf("%d sessions created from malformed uploads", n)
	}
}
