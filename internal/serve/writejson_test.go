package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteJSONNeverSendsEmptySuccess: a value that does not encode must
// not leave a success status with an empty body behind; it becomes a 500
// whose body is an ErrorBody naming the failure. Encodable values keep
// their status and body.
func TestWriteJSONNeverSendsEmptySuccess(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, ScheduleResponse{Solution: "s0:m0", Makespan: math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable value answered %d, want 500", rec.Code)
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "unsupported value") {
		t.Fatalf("500 body %q (decode error %v), want an ErrorBody naming the encoding failure", rec.Body, err)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, ScheduleResponse{Solution: "s0:m0", Makespan: 7})
	var got ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusCreated || err != nil || got.Makespan != 7 {
		t.Fatalf("encodable value: %d %q (decode error %v), want 201 with its body", rec.Code, rec.Body, err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
}
