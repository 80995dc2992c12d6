package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request (a call's arrival or departure, one plan, one simulation run)
// share Req; Parent is the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out once, at exit. A nil
// tracer records nothing, so the untraced runs that produce the end-to-end
// metrics pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(name, req string, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, req, parent)
	start := time.Now()
	err := fn()
	took := time.Since(start)
	t.end(id)
	return took, err
}

// selfShare returns the share of root-span time not covered by child spans:
// the time spent in the benchmark's own code between layer calls. Roots
// without children (the layer probes) are calls themselves and left out.
func (t *tracer) selfShare() float64 {
	if t == nil {
		return 0
	}
	children := make(map[int]int64) // root id -> time its direct children cover
	for _, s := range t.spans {
		if s.Parent != 0 && t.spans[s.Parent-1].Parent == 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var roots, covered int64
	for id, c := range children {
		roots += t.spans[id-1].End - t.spans[id-1].Start
		covered += c
	}
	return ratio(float64(roots-covered), float64(roots))
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close() // error paths; the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
