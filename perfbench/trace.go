package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
type span struct {
	// ID is shared by every span of one unit of work (a cell, a request,
	// a simulation run, a probed instance).
	ID int64 `json:"id"`
	// Parent indexes the span that caused this one; -1 for a root.
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Count is the work the span covers: calls for a batch of identical
	// probe calls, evaluations for a solve, 1 otherwise.
	Count int64 `json:"count"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// maxSpans caps the in-memory span log so a long traced run cannot grow
// without bound; spans beyond it are counted but not kept.
const maxSpans = 2_000_000

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured code paths are
// the same with tracing on and off apart from the recording itself.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end; -1 when untraced or
// when the log is full.
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now, Count: 1})
	return len(t.spans) - 1
}

// end closes the span h, recording count units of work.
func (t *tracer) end(h int, count int64) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[h].End = now
	t.spans[h].Count = count
	t.mu.Unlock()
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name string, id int64, parent int, start, end time.Time, count int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Count: count})
}

// layerTotals sums the spans of each name.
type layerTotals struct {
	spans int64
	count int64
	busy  time.Duration
}

// totals groups the recorded spans by name.
func (t *tracer) totals() map[string]layerTotals {
	out := map[string]layerTotals{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.spans++
		lt.count += s.Count
		lt.busy += s.dur()
		out[s.Name] = lt
	}
	return out
}

// childTime sums, per parent span name, the time covered by direct
// children: a layer's self time is its spans' duration minus this.
func (t *tracer) childTime(parentName string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == parentName {
			d += s.dur()
		}
	}
	return d
}

// durations returns the duration of every span of the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// len reports how many spans were kept.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the span log as JSON lines at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
