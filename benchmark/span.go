package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around a call into a public function of the program under test. Spans of
// one op (request, window, experiment) share ID; Parent is the index of the
// span that caused this one (-1 for a root). Per-target calls are far too many
// to keep one span each, so they fold into one span per window that carries
// the call Count and the summed BusyNs of the calls.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	BusyNs int64  `json:"busy_ns,omitempty"`
}

// tracedSpan is a span as trace.json stores it, with its self times.
type tracedSpan struct {
	span
	SelfNs     int64 `json:"self_ns"`
	SelfBusyNs int64 `json:"self_busy_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is only handed to a
// workload in a -trace run; the untraced run never calls it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, id int64, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.now()
}

// add records finished spans in one step (a client's per-request spans after
// a round, or a window's aggregated per-target calls).
func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, ss...)
}

// setBusy attaches a busy time (CPU or summed call time) to a span.
func (t *tracer) setBusy(i int, count, busyNs int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Count = count
	t.spans[i].BusyNs = busyNs
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfWallNs returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children count once; a child
// reaching outside its parent is clipped).
func selfWallNs(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		edge := s.Start
		for _, c := range iv {
			lo, hi := c[0], c[1]
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				out[i] -= hi - lo
				edge = hi
			}
		}
	}
	return out
}

// selfBusyNs returns, per span that carries a busy time, that busy time minus
// the busy time of its direct children — the work the layer did itself when
// children ran in parallel and wall-clock intervals cannot be subtracted.
func selfBusyNs(spans []span) []int64 {
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.BusyNs
	}
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && spans[s.Parent].BusyNs > 0 {
			out[s.Parent] -= s.BusyNs
		}
	}
	return out
}

// writeTrace stores the spans, each with its self times, as one JSON document.
func writeTrace(path string, workload string, seed uint64, spans []span) error {
	selfWall, selfBusy := selfWallNs(spans), selfBusyNs(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"spans":[`, workload, seed)
	enc := json.NewEncoder(w)
	for i := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(tracedSpan{spans[i], selfWall[i], selfBusy[i]}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
