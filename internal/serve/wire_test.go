package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// FuzzCreateRequest checks decodeCreateRequest, the POST /v1/sessions
// body reader, against encoding/json's decode of the same body into a
// CreateSessionRequest: both accept or both reject, and what they accept
// they read identically, down to the workload member's raw bytes.
func FuzzCreateRequest(f *testing.F) {
	var doc bytes.Buffer
	if err := workload.Encode(&doc, workload.Figure1()); err != nil {
		f.Fatal(err)
	}
	full := `{"workload": ` + doc.String() + `, "initial": "s0 m0"}`
	for _, seed := range []string{
		full,
		full[:len(full)/2],
		`{"preset":"small","params":{"Tasks":3},"initial":"x"}`,
		`{"Workload":null}`,
		`{"workload":{"a":1},"WORKLOAD":[1,2],"worKload":"last"}`,
		`{"workload":{"tasks":["\ud800"]}, "preset":"small"} trailing`,
		`{"workload":1}{"preset":"x"}`,
		`{"params":{"Tasks":1},"params":null,"params":{"Seed":2}}`,
		`{"preset":1,"workload":{}}`,
		`{"workload":[1,2}`,
		`{"workload":{"x":[1,]}}`,
		`{"workload":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`,
		`{"workload":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		strings.Repeat("[", 10001),
		` null `,
		`"workload"`,
		``,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeCreateRequest(body)
		var want CreateSessionRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeCreateRequest err = %v, encoding/json err = %v\n%q", err, wantErr, body)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeCreateRequest read %+v, encoding/json %+v\n%q", got, want, body)
		}
	})
}
