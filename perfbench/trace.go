package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. IDs are 1-based positions in
// the tracer's span list; parent 0 means the span has no known parent.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
	Parent int32         `json:"parent"`
	Req    uint64        `json:"req"`
	Sim    time.Duration `json:"sim_ns,omitempty"` // simulated device cost the call returned
	Bytes  int64         `json:"bytes,omitempty"`  // bytes the call moved, where it says
}

// tracer keeps every span of one pass in memory. The benchmark opens a
// span around each call it makes into a layer; the blockfs wrapper opens
// one around each engine call into blockfs and parents it to the call in
// flight, which is known only when one goroutine makes every call
// (passes B and C). A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool  // spans are recorded only inside the timed window
	cur   atomic.Int32 // the single benchmark call in flight, if any

	mu    sync.Mutex
	spans []span
	reqs  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a top-level span with a fresh request id.
func (t *tracer) begin(name string) int32 {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	t.spans = append(t.spans, span{Name: name, Start: now, Req: t.reqs})
	return int32(len(t.spans))
}

// beginChild opens a span under the call in flight, sharing its request
// id; with no call in flight the span has neither parent nor request.
func (t *tracer) beginChild(name string) int32 {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.epoch)
	parent := t.cur.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	var req uint64
	if parent > 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return int32(len(t.spans))
}

// end closes span id, recording the simulated cost the call returned
// and the bytes it moved.
func (t *tracer) end(id int32, sim time.Duration, n int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Sim = sim
	t.spans[id-1].Bytes = n
	t.mu.Unlock()
}

// call opens a top-level span and, when the pass makes its calls from
// one goroutine, marks it as the call in flight for the blockfs wrapper.
func (t *tracer) call(name string, single bool) func(sim time.Duration) {
	id := t.begin(name)
	if id == 0 {
		return func(time.Duration) {}
	}
	if single {
		t.cur.Store(id)
	}
	return func(sim time.Duration) {
		if single {
			t.cur.Store(0)
		}
		t.end(id, sim, 0)
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
