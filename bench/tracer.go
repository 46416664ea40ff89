package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one traced interval, recorded by the bench around a call into a
// layer's exported function. Start and End are seconds since the traced
// window opened. An event (an engine span stamped on arrival) has
// Start == End.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Parent  int     `json:"parent"` // 0 = no parent
	Commit  int     `json:"commit"` // 0 = the untimed warm-up
	Flight  int64   `json:"flight,omitempty"`
	Bytes   int     `json:"bytes,omitempty"`
	Outcome string  `json:"outcome,omitempty"`
	// Queued is when a flight was handed to the workers (its wait is
	// Start − Queued).
	Queued float64 `json:"queued,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory and writes them out when the child ends.
// The innermost open span is tracked per goroutine, so a span opened
// anywhere (the codec recorder fires on whichever goroutine ran the codec)
// finds its parent without the traced code carrying a handle.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	open   map[int64]int // goroutine id → innermost open span id
	commit int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: map[int64]int{}} }

// goid reads the calling goroutine's id from its stack header
// ("goroutine 17 [running]:"). The runtime offers no goroutine-local
// storage; this is the traced run's stand-in, never on the e2e path.
func goid() int64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.t0).Seconds() }

// begin opens a span under the calling goroutine's innermost open span.
func (t *tracer) begin(name, layer string, flight int64) int {
	g, now := goid(), time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Start: t.since(now),
		Parent: t.open[g], Commit: t.commit, Flight: flight})
	t.open[g] = id
	return id
}

// end closes a span opened by begin on the same goroutine.
func (t *tracer) end(id int) {
	g, now := goid(), time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.since(now)
	t.open[g] = t.spans[id-1].Parent
}

// adopt makes parent the calling goroutine's innermost span: a worker
// goroutine calls it so its spans hang under the phase that spawned it.
func (t *tracer) adopt(parent int) {
	g := goid()
	t.mu.Lock()
	t.open[g] = parent
	t.mu.Unlock()
}

// leaf records an already-finished interval that ended just now, under
// the calling goroutine's innermost span.
func (t *tracer) leaf(name, layer string, seconds float64, bytes int) {
	g, now := goid(), time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.since(now)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Layer: layer,
		Start: end - seconds, End: end, Parent: t.open[g], Commit: t.commit, Bytes: bytes})
}

// event records an instantaneous fact (an engine span's arrival).
func (t *tracer) event(name, layer string, at time.Time, flight int64, outcome string) {
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.since(at)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Layer: layer, Start: ts, End: ts,
		Parent: t.open[g], Commit: t.commit, Flight: flight, Outcome: outcome})
}

// setQueued stamps when a flight span's work was enqueued.
func (t *tracer) setQueued(id int, at time.Time) {
	t.mu.Lock()
	t.spans[id-1].Queued = t.since(at)
	t.mu.Unlock()
}

// CodecTiming implements wire.CodecRecorder: every codec pass of the
// traced run becomes a wire span under whatever phase ran it.
func (t *tracer) CodecTiming(_, op string, bytes int, seconds float64) {
	t.leaf("wire."+op, "wire", seconds, bytes)
}

// selfTimes returns each span's self time: its duration minus the part of
// it its children cover (children of one parent may overlap — two workers
// under one phase — so coverage is the union).
func selfTimes(spans []span) []float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, edge := 0.0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// under reports whether span s has an ancestor (or is itself) named name.
func under(spans []span, s span, name string) bool {
	for {
		if s.Name == name {
			return true
		}
		if s.Parent == 0 {
			return false
		}
		s = spans[s.Parent-1]
	}
}

// write dumps the spans as JSON lines to <dir>/<workload>.trace.jsonl.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
