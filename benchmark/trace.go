package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the repo.
// Spans of one repetition share Rep; Parent is the index of the span that
// caused this one, -1 for a repetition's root.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	Rep        int
	Lane       int // 0 = the driver goroutine; >0 = a concurrent sweep cell
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path pays one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex // sweep cells report from the executor's goroutines
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name string, start, end time.Time, parent, rep, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
		Parent: parent, Rep: rep, Lane: lane})
	return len(t.spans) - 1
}

// selfTime is one row of the trace summary: per span name, how often it
// ran, its total time, and its self time — the span's duration minus the
// part of that interval its child spans cover (children of a sweep run
// overlap, so cover is their union, not their sum).
type selfTime struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layerOf maps a span name to the repo package it calls into.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// unionLen returns how much of [lo, hi] the intervals cover; overlapping
// intervals (concurrent sweep cells) count once.
func unionLen(lo, hi time.Duration, intervals [][2]time.Duration) time.Duration {
	sort.Slice(intervals, func(a, b int) bool { return intervals[a][0] < intervals[b][0] })
	var covered time.Duration
	edge := lo
	for _, iv := range intervals {
		a, b := iv[0], iv[1]
		if a < edge {
			a = edge
		}
		if b > hi {
			b = hi
		}
		if b > a {
			covered += b - a
			edge = b
		}
	}
	return covered
}

// selfOf returns each span's self time.
func selfOf(spans []span) []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - unionLen(s.Start, s.End, kids[i])
	}
	return out
}

// summary aggregates self time by span name, largest self time first.
func (t *tracer) summary() []selfTime {
	if t == nil {
		return nil
	}
	self := selfOf(t.spans)
	byName := make(map[string]*selfTime)
	for i, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &selfTime{Name: s.Name, Layer: layerOf(s.Name)}
			byName[s.Name] = r
		}
		r.Count++
		r.TotalMS += ms(s.End - s.Start)
		r.SelfMS += ms(self[i])
	}
	out := make([]selfTime, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SelfMS != out[b].SelfMS {
			return out[a].SelfMS > out[b].SelfMS
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// chromeEvent is one "complete" event of the Chrome trace-event format,
// which chrome://tracing and ui.perfetto.dev load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// traceFileReps caps how many repetitions the trace file holds. Every
// traced repetition is recorded and summarized; the file keeps the first
// ones so that it stays small enough to open (fine_local_read records
// ~5 600 workload.Next spans per repetition).
const traceFileReps = 20

// writeChrome writes the spans of the first traceFileReps traced
// repetitions as Chrome trace-event JSON. Nesting is by containment on a
// lane, which is how the viewers draw it.
func (t *tracer) writeChrome(path string) error {
	seen := map[int]bool{}
	var events []chromeEvent
	for _, s := range t.spans {
		if !seen[s.Rep] && len(seen) == traceFileReps {
			continue
		}
		seen[s.Rep] = true
		events = append(events, chromeEvent{Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: s.Lane,
			Args: map[string]int{"rep": s.Rep}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
