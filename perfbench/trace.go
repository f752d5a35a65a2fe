package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a public call it makes or a seam it owns. Spans of
// one loop iteration share its sequence number as id.
type span struct {
	name       string
	parent     int // index of the causing span, -1 for a root
	id         uint64
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer, or one switched off, records nothing; begin then
// returns -1 and end ignores it.
type tracer struct {
	origin time.Time
	on     atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// active reports whether spans are being recorded right now.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, parent int, id uint64) int {
	if !t.active() {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, id: id, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(h int) {
	if h < 0 || t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

// record stores an already-timed span.
func (t *tracer) record(name string, parent int, id uint64, start, end time.Time) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, id: id,
		start: start.Sub(t.origin), end: end.Sub(t.origin)})
	t.mu.Unlock()
}

// selfTimes returns, per layer (the span name up to its first dot),
// the summed self time: each span's duration minus the part of it its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self := s.end - s.start - covered(t.spans, children[i], s.start, s.end)
		out[layerOf(s.name)] += self
	}
	return out
}

// covered returns the length of the union of the child intervals,
// clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if spans[k].end >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeCSV writes every span, gzip-compressed, as one line: index,
// parent, id, name, start and end in nanoseconds since the run's origin.
func (t *tracer) writeCSV(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<20)
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintln(w, "span,parent,id,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.id, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
