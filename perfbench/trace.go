package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, when it
// started and ended, the span that caused it and the request it served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root span
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"` // edges or records the call covered
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id, recording how many items it covered.
func (t *tracer) end(id, items int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Items = items
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stage is the ledger line of one span name: calls, items and self time.
type stage struct {
	Calls int
	Items int
	Self  time.Duration
}

// ledger sums self time by span name. A span's self time is its duration
// minus the part its child spans cover.
func ledger(spans []span) map[string]*stage {
	childTime := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	out := map[string]*stage{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &stage{}
			out[s.Name] = st
		}
		st.Calls++
		st.Items += s.Items
		st.Self += s.dur() - childTime[s.ID]
	}
	return out
}

// durations lists the durations of every span named name, in ms.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}
