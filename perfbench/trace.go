package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a call into a module's exported function.
type span struct {
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Parent  int           `json:"parent"` // index into the recorder's spans, -1 for a root
	Session int           `json:"session"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so the same session code
// runs with tracing on or off.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (-1 when untraced).
func (r *recorder) begin(name string, parent, session int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Session: session})
	return len(r.spans) - 1
}

// end closes the span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// call records f as a span named name under parent.
func (r *recorder) call(name string, parent, session int, f func()) {
	id := r.begin(name, parent, session)
	f()
	r.end(id)
}

// layers are the module names a span's prefix may carry; spans outside
// them (session, prove, verify) only structure a session.
var layers = map[string]bool{
	"nn": true, "zkml": true, "server": true, "wire": true, "matrix": true,
	"crpc": true, "r1cs": true, "spartan": true, "pcs": true, "sumcheck": true,
	"mle": true, "groth16": true, "qap": true, "curve": true, "poly": true, "ff": true,
}

func isLayer(name string) bool {
	prefix, _, _ := strings.Cut(name, ".")
	return layers[prefix]
}

// sessionView is one session's spans, summarised.
type sessionView struct {
	total     time.Duration            // the session span's duration
	byName    map[string]time.Duration // Σ duration per span name
	layerSelf time.Duration            // Σ self time of layer spans
}

// sessions groups the recorded spans by the session span named root and
// computes per-name inclusive times and layer self time. A span's self
// time is its duration minus its children's; children of one parent run
// one after another in this benchmark, so their durations do not overlap.
func (r *recorder) sessions(root string) []sessionView {
	r.mu.Lock()
	defer r.mu.Unlock()
	childTime := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	bySession := map[int]*sessionView{}
	var order []int
	for i, s := range r.spans {
		v := bySession[s.Session]
		if v == nil {
			v = &sessionView{byName: map[string]time.Duration{}}
			bySession[s.Session] = v
			order = append(order, s.Session)
		}
		d := s.End - s.Start
		if s.Name == root {
			v.total = d
			continue
		}
		v.byName[s.Name] += d
		if isLayer(s.Name) {
			v.layerSelf += d - childTime[i]
		}
	}
	sort.Ints(order)
	out := make([]sessionView, 0, len(order))
	for _, id := range order {
		if v := bySession[id]; v.total > 0 {
			out = append(out, *v)
		}
	}
	return out
}

// medianOf returns the median over sessions of the summed time of the
// named spans, in seconds.
func medianOf(views []sessionView, names ...string) float64 {
	vals := make([]float64, len(views))
	for i, v := range views {
		for _, n := range names {
			vals[i] += v.byName[n].Seconds()
		}
	}
	return median(vals)
}

// coverage is the median over sessions of Σ layer self time ÷ session time.
func coverage(views []sessionView) float64 {
	vals := make([]float64, len(views))
	for i, v := range views {
		vals[i] = v.layerSelf.Seconds() / v.total.Seconds()
	}
	return median(vals)
}

// write dumps the spans as JSON lines to dir/name.
func (r *recorder) write(dir, name string) (string, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	r.mu.Lock()
	for _, s := range r.spans {
		enc.Encode(s) // a span always encodes; writes to a bytes.Buffer cannot fail
	}
	r.mu.Unlock()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, nil
}
