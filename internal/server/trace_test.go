package server

import (
	"context"
	"fmt"
	"testing"

	"directload/internal/metrics"
)

// spansByName indexes a trace's spans; duplicate names collect in order.
func spansByName(recs []metrics.SpanRecord) map[string][]metrics.SpanRecord {
	out := make(map[string][]metrics.SpanRecord)
	for _, r := range recs {
		out[r.Name] = append(out[r.Name], r)
	}
	return out
}

// TestTracePropagation checks the happy path: a client span crosses the
// wire and the server's handler span joins the same trace, parented at
// the client span.
func TestTracePropagation(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := startServerReg(t, reg)

	cl, err := Dial(s.Addr().String(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, end := reg.StartSpan(context.Background(), "test.root")
	sc, ok := metrics.SpanFromContext(ctx)
	if !ok || !sc.Valid() {
		t.Fatal("StartSpan left no span in the context")
	}
	if err := cl.PutContext(ctx, []byte("tk"), 1, []byte("tv"), false); err != nil {
		t.Fatal(err)
	}
	end(nil)

	trace := spansByName(reg.Tracer().Trace(sc.TraceID))
	root := trace["test.root"]
	srv := trace["server.req.put"]
	if len(root) != 1 || len(srv) != 1 {
		t.Fatalf("trace has %d test.root and %d server.req.put spans, want 1 and 1",
			len(root), len(srv))
	}
	if srv[0].TraceID != sc.TraceID {
		t.Fatalf("server span trace = %016x, want %016x", srv[0].TraceID, sc.TraceID)
	}
	if srv[0].ParentID != root[0].SpanID {
		t.Fatalf("server span parent = %016x, want the client span %016x",
			srv[0].ParentID, root[0].SpanID)
	}
}

// TestTraceUntracedRequestsMintNothing checks that plain requests — no
// span in the context — leave no trace on the server.
func TestTraceUntracedRequestsMintNothing(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := startServerReg(t, reg)
	cl, err := Dial(s.Addr().String(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.PutContext(context.Background(), []byte("uk"), 1, []byte("uv"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetContext(context.Background(), []byte("uk"), 1); err != nil {
		t.Fatal(err)
	}
	// Engine-internal spans (gc.cycle, qindb.recovery) are fine; what
	// must not appear is a request handler span.
	for _, rec := range reg.Tracer().Spans() {
		if len(rec.Name) >= 7 && rec.Name[:7] == "server." {
			t.Fatalf("untraced request minted a %q span", rec.Name)
		}
	}
}

// TestTraceBatchSubOpSpans checks the batch fan-in: one traced flush
// produces a client flush span, one server batch handler span parented
// at it, and one sub-op span per record parented at the handler.
func TestTraceBatchSubOpSpans(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := startServerReg(t, reg)
	cl, err := Dial(s.Addr().String(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, end := reg.StartSpan(context.Background(), "publish.root")
	sc, _ := metrics.SpanFromContext(ctx)
	batch := cl.Batcher()
	const n = 7
	for i := 0; i < n; i++ {
		if err := batch.Put(ctx, []byte(fmt.Sprintf("bk-%02d", i)), 1, []byte("bv"), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	end(nil)

	trace := spansByName(reg.Tracer().Trace(sc.TraceID))
	flush := trace["client.batch.flush"]
	handler := trace["server.req.batch"]
	subs := trace["server.batch.put"]
	if len(flush) != 1 || len(handler) != 1 {
		t.Fatalf("trace has %d flush and %d handler spans, want 1 and 1",
			len(flush), len(handler))
	}
	if len(subs) != n {
		t.Fatalf("trace has %d server.batch.put spans, want %d", len(subs), n)
	}
	if handler[0].ParentID != flush[0].SpanID {
		t.Fatalf("handler parent = %016x, want the flush span %016x",
			handler[0].ParentID, flush[0].SpanID)
	}
	for _, sub := range subs {
		if sub.ParentID != handler[0].SpanID {
			t.Fatalf("sub-op parent = %016x, want the handler span %016x",
				sub.ParentID, handler[0].SpanID)
		}
	}
}

// TestTraceSlowLogCapture checks that a traced request over threshold
// lands in the server's slow-op log tagged with its trace ID.
func TestTraceSlowLogCapture(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := startServerReg(t, reg)
	slow := metrics.NewSlowLog(8, 1) // 1ns: everything qualifies
	s.SetSlowLog(slow)
	cl, err := Dial(s.Addr().String(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, end := reg.StartSpan(context.Background(), "slow.root")
	sc, _ := metrics.SpanFromContext(ctx)
	if err := cl.PutContext(ctx, []byte("slowk"), 1, []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	end(nil)
	entries := slow.Entries(0)
	if len(entries) == 0 {
		t.Fatal("slow log empty with a 1ns threshold")
	}
	var found bool
	for _, e := range entries {
		if e.Op == "put" && e.Key == "slowk" && e.TraceID == sc.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slow entry for put/slowk with trace %016x: %+v", sc.TraceID, entries)
	}
}
