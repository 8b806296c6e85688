package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a call into one layer.
// Spans of one operation share op; parent is the enclosing span's id
// (-1 for an operation's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; write dumps them once the
// run is over, so recording costs a clock read and an append.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: now, EndNs: -1})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNs = now
	return time.Duration(now - t.spans[id].StartNs)
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
