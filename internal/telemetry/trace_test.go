package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanDisabledIsNil(t *testing.T) {
	var nilReg *Registry
	if s := nilReg.StartSpan("x"); s != nil {
		t.Fatal("nil registry must hand out nil spans")
	}
}

func TestSpanRecords(t *testing.T) {
	r := New()
	s := r.StartSpan("phase.test")
	s.End()
	evs := r.Spans()
	if len(evs) != 1 || evs[0].Name != "phase.test" {
		t.Fatalf("spans = %+v", evs)
	}
	if evs[0].Dur < 0 {
		t.Fatalf("negative duration: %v", evs[0].Dur)
	}
}

// traceDoc mirrors the Chrome trace-event format for decoding in tests.
type traceDoc struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		TS   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		PID  int    `json:"pid"`
		TID  int    `json:"tid"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTrace(t *testing.T) {
	r := New()
	base := time.Now()
	r.spans = []SpanEvent{
		{Name: "a", Start: base, Dur: 100 * time.Millisecond},
		{Name: "b", Start: base.Add(200 * time.Millisecond), Dur: 50 * time.Millisecond},
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, r); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}
	ev0, ev1 := doc.TraceEvents[0], doc.TraceEvents[1]
	if ev0.Name != "a" || ev0.Ph != "X" || ev0.TS != 0 || ev0.Dur != 100_000 {
		t.Fatalf("first event = %+v", ev0)
	}
	if ev1.Name != "b" || ev1.TS != 200_000 {
		t.Fatalf("second event = %+v", ev1)
	}
	// Disjoint spans share a lane.
	if ev0.TID != ev1.TID {
		t.Fatalf("disjoint spans on different lanes: %d vs %d", ev0.TID, ev1.TID)
	}
}

func TestChromeTraceLaneAssignment(t *testing.T) {
	r := New()
	base := time.Now()
	// a overlaps b; c starts after both end.
	r.spans = []SpanEvent{
		{Name: "a", Start: base, Dur: 300 * time.Millisecond},
		{Name: "b", Start: base.Add(100 * time.Millisecond), Dur: 100 * time.Millisecond},
		{Name: "c", Start: base.Add(400 * time.Millisecond), Dur: 50 * time.Millisecond},
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, r); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		tids[ev.Name] = ev.TID
	}
	if tids["a"] == tids["b"] {
		t.Fatal("overlapping spans must land on different lanes")
	}
	if tids["c"] != tids["a"] {
		t.Fatal("a later span should reuse the first free lane")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteChromeTrace(&b, New(), nil); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid empty trace: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}
}
