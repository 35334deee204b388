package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from the benchmark's own files, around its calls into
// each layer's public functions; the engine is not instrumented. A span's
// name starts with the module it times ("core.pin", "services.decode",
// "query.point"), so a layer's self time is the sum over its spans of the
// span's duration minus the part of it that child spans cover.

type spanID int32

// span is one timed call. Start and End are nanoseconds since the tracer was
// made. Op groups the spans of one operation (a query, a scan, a job).
type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer owns the run's spans. A nil *tracer, and the nil *spanBuf it hands
// out, record nothing, so untraced code calls the same functions.
type tracer struct {
	t0   time.Time
	next atomic.Int32

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's span list: its owner appends without locking.
type spanBuf struct {
	tr    *tracer
	spans []span
}

// buf registers a new span list for the calling goroutine.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// openSpan is a started span; end closes it.
type openSpan struct {
	b *spanBuf
	i int
}

func (b *spanBuf) begin(name string, parent spanID, op int64) openSpan {
	if b == nil {
		return openSpan{}
	}
	b.spans = append(b.spans, span{
		ID: spanID(b.tr.next.Add(1)), Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(b.tr.t0)),
	})
	return openSpan{b: b, i: len(b.spans) - 1}
}

func (o openSpan) end() {
	if o.b != nil {
		o.b.spans[o.i].End = int64(time.Since(o.b.tr.t0))
	}
}

// cancel forgets the span. Only the buffer's newest span can be cancelled.
func (o openSpan) cancel() {
	if o.b != nil {
		o.b.spans = o.b.spans[:o.i]
	}
}

// id is the span's identifier, for its children to name as parent; 0 when
// tracing is off.
func (o openSpan) id() spanID {
	if o.b == nil {
		return 0
	}
	return o.b.spans[o.i].ID
}

// all returns every recorded span, ordered by start. Call it once the
// goroutines that own the buffers have finished.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each span's self time in nanoseconds, keyed by span ID:
// its duration minus the part of its interval that its children cover.
// Children on parallel threads may overlap one another, so the covered part
// is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[spanID]int64 {
	children := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[spanID]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		reach := s.Start // everything before reach is already counted
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerOf is the module prefix of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// durations returns, in seconds, the duration of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e9)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
