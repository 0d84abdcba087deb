package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name       string
	Req        string // request id: spans of one request share it
	Parent     int    // index of the enclosing span, -1 at the root
	Start, End time.Duration
}

// tracer records spans in memory; a nil tracer records nothing. It is used
// from the benchmark's one client goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	req   string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request sets the request id stamped on the spans begun from now on.
func (tr *tracer) request(id string) {
	if tr != nil {
		tr.req = id
	}
}

// begin opens a span under the innermost open span and returns its index.
func (tr *tracer) begin(name string) int {
	if tr == nil {
		return -1
	}
	parent := -1
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Req: tr.req, Parent: parent, Start: time.Since(tr.t0)})
	i := len(tr.spans) - 1
	tr.stack = append(tr.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (tr *tracer) end(i int) {
	if tr == nil {
		return
	}
	tr.spans[i].End = time.Since(tr.t0)
	tr.stack = tr.stack[:len(tr.stack)-1]
}

// durations returns the durations of every span with the given name.
func (tr *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover.
func (tr *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range tr.spans {
		self[s.Name] += s.End - s.Start
	}
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			self[tr.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// writeChrome writes the spans as one Chrome trace JSON file (complete
// "X" events, microsecond timestamps) with the per-name self times as
// metadata.
func (tr *tracer) writeChrome(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(tr.spans))
	for i, s := range tr.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "req": s.Req},
		}
	}
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	selfUs := make(map[string]float64, len(names))
	for _, n := range names {
		selfUs[n] = float64(self[n].Nanoseconds()) / 1e3
	}
	meta["self_time_us"] = selfUs
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
