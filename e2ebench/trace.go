package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcert"
)

// keepSpans bounds the spans kept in memory for the span dump; every span is
// still counted in the per-name totals.
const keepSpans = 50000

// span is one timed call the benchmark made into the program.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Trace ties the spans of one query or one block together.
	Trace   uint64 `json:"trace"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type spanTotal struct {
	n     int
	total time.Duration
}

// tracer records spans around the benchmark's own calls into the program.
// A nil tracer records nothing, which is how untraced runs measure.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	totals map[string]*spanTotal
	kept   []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: make(map[string]*spanTotal)}
}

func (t *tracer) span(name, parent string, trace uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.totals[name]
	if st == nil {
		st = &spanTotal{}
		t.totals[name] = st
	}
	st.n++
	st.total += end.Sub(start)
	if len(t.kept) < keepSpans {
		t.kept = append(t.kept, span{Name: name, Parent: parent, Trace: trace,
			StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	}
}

// total returns the count and summed duration of the spans named name.
func (t *tracer) total(name string) (int, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.totals[name]; st != nil {
		return st.n, st.total
	}
	return 0, 0
}

// dump writes the kept spans as JSON lines.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape reads every instrument of the deployment's metrics registry from
// its Prometheus exposition, keyed both by full series (name plus labels)
// and by metric name (summed over label sets).
func scrape(reg *dcert.MetricsRegistry) (map[string]float64, error) {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		out[series] = v
		if i := strings.IndexByte(series, '{'); i >= 0 {
			out[series[:i]] += v
		}
	}
	return out, nil
}
