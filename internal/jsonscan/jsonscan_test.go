package jsonscan

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSkipMatchesEncodingJSON: Skip accepts the first value of an input
// exactly when encoding/json's Decoder does, and ends where it ends.
func TestSkipMatchesEncodingJSON(t *testing.T) {
	for _, in := range []string{
		`{}`, `[]`, ` { "a" : [ 1 , -2.5e+3 , "x" , true , false , null , { } ] } `,
		`{"a":1}trailing`, `[1]]`, `null`, `nullx`, `true`, `false`, `0`, `-0`, `123x`, `1.5E-7`,
		`"é\ud800\n\"\\\/\b\f\r\t"`, "\"\xff\xfe\"", `"😀"`,
		`{"a":1,}`, `[1,]`, `[,1]`, `{"a"}`, `{"a":}`, `{1:2}`, `{"a":1 "b":2}`, `[1 2]`,
		`01`, `-`, `-a`, `1.`, `.5`, `1e`, `1e+`, `+1`, `1.e5`, `tru`, `nul`, `fals`, `"abc`, `"\x"`, `"\u12"`, `"\u12g4"`,
		"\"a\x01b\"", "\"a\x7fb\"", "\t\r\n [ ] ", "\f[]", "\xef\xbb\xbf[]", ``, `  `, `}`, `]`,
		strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth),
		strings.Repeat("[", MaxDepth+1) + strings.Repeat("]", MaxDepth+1),
		strings.Repeat(`{"a":`, MaxDepth) + "1" + strings.Repeat("}", MaxDepth),
		strings.Repeat(`{"a":`, MaxDepth+1) + "1" + strings.Repeat("}", MaxDepth+1),
		strings.Repeat("[", 5*MaxDepth),
	} {
		s := New([]byte(in))
		err := s.Skip()
		var raw json.RawMessage
		dec := json.NewDecoder(strings.NewReader(in))
		refErr := dec.Decode(&raw)
		if (err == nil) != (refErr == nil) {
			t.Errorf("%.40q: Skip err = %v, encoding/json err = %v", in, err, refErr)
			continue
		}
		if err == nil && s.Offset() != int(dec.InputOffset()) {
			t.Errorf("%.40q: Skip ends at %d, encoding/json at %d", in, s.Offset(), dec.InputOffset())
		}
	}
}

// TestTypedReadersMatchEncodingJSON: Str, Float and Int read a value as
// encoding/json reads it into a string, float64 or int64 — the same
// bits, the same rejections, and null as the zero value.
func TestTypedReadersMatchEncodingJSON(t *testing.T) {
	for _, in := range []string{
		`"plain"`, `"é"`, `"\ud800"`, `"\udc00\ud800"`, `"\ud800A"`, `"\ud800\n"`, `"😀"`,
		`"\u0000\/\""`, "\"\xff\xfeb\"", "\"\xed\xa0\x80\"", "\"\xf0\x9f\x98\"", "\"\xe2\x82\xac\"",
		`null`, `0`, `-0`, `1.0`, `1e2`, `-1.5e-3`, `1e400`, `-1e400`, `1e-400`, `-1e-400`,
		`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
		`0.1`, `123456789012345678901234567890`, `4.9406564584124654e-324`, `1.7976931348623157e308`,
		`true`, `[]`, `{}`, `"1"`,
	} {
		var wantS string
		wantSErr := json.Unmarshal([]byte(in), &wantS)
		gotS, err := New([]byte(in)).Str()
		if (err == nil) != (wantSErr == nil) || (err == nil && gotS != wantS) {
			t.Errorf("Str(%s) = %q, %v; encoding/json %q, %v", in, gotS, err, wantS, wantSErr)
		}

		var wantF float64
		wantFErr := json.Unmarshal([]byte(in), &wantF)
		gotF, err := New([]byte(in)).Float()
		if (err == nil) != (wantFErr == nil) || (err == nil && math.Float64bits(gotF) != math.Float64bits(wantF)) {
			t.Errorf("Float(%s) = %v, %v; encoding/json %v, %v", in, gotF, err, wantF, wantFErr)
		}

		var wantI int64
		wantIErr := json.Unmarshal([]byte(in), &wantI)
		gotI, err := New([]byte(in)).Int(64)
		if (err == nil) != (wantIErr == nil) || (err == nil && gotI != wantI) {
			t.Errorf("Int(%s) = %v, %v; encoding/json %v, %v", in, gotI, err, wantI, wantIErr)
		}
	}
}

// TestObjectUnquotesNames: member names reach the callback unquoted, as
// encoding/json compares them with struct field names.
func TestObjectUnquotesNames(t *testing.T) {
	var names [][]byte
	s := New([]byte("{\"plain\":1, \"t\\u0061sks\":2, \"taſk\":3, \"a\xffb\":4}"))
	err := s.Object(func(name []byte) error {
		names = append(names, bytes.Clone(name))
		return s.Skip()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"plain", "tasks", "taſk", "a�b"}
	if len(names) != len(want) {
		t.Fatalf("got %d names, want %d", len(names), len(want))
	}
	for i, n := range names {
		if string(n) != want[i] {
			t.Errorf("name %d = %q, want %q", i, n, want[i])
		}
	}
}
