package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"directload/internal/core"
	"directload/internal/metrics"
)

// TestDialSendsRequestFirst verifies there is no handshake: Dial
// writes nothing, and the first frame on a fresh connection is the
// client's first request.
func TestDialSendsRequestFirst(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	first := make(chan request, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		seq, body, err := readFrameSeq(conn)
		if err != nil {
			return
		}
		req, err := decodeRequest(body)
		if err != nil {
			return
		}
		first <- req
		writeFrameSeq(conn, seq, encodeResponse(StatusOK, []byte("pong")))
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.PingContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if req := <-first; req.Op != OpPing {
		t.Fatalf("first frame carried op %d, want OpPing", req.Op)
	}
}

// TestRetiredOpcode verifies opcode 11 (once the handshake) is answered
// like any unknown op, and the connection keeps serving.
func TestRetiredOpcode(t *testing.T) {
	s, _ := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for seq, op := range []uint8{11, OpPing} {
		body, _ := encodeRequest(request{Op: op})
		if err := writeFrameSeq(conn, uint32(seq), body); err != nil {
			t.Fatal(err)
		}
		got, frame, err := readFrameSeq(conn)
		if err != nil || got != uint32(seq) {
			t.Fatalf("op %d: reply seq %d, %v", op, got, err)
		}
		status, payload, _ := decodeResponse(frame)
		switch {
		case op == 11 && (status != StatusFailed || string(payload) != "unknown op"):
			t.Fatalf("op 11 = status %d %q, want unknown op", status, payload)
		case op == OpPing && (status != StatusOK || string(payload) != "pong"):
			t.Fatalf("ping after op 11 = status %d %q", status, payload)
		}
	}
}

// TestPipelinedOutOfOrder proves the client matches responses by
// sequence number, not arrival order: a scripted server answers two
// pipelined gets in reverse.
func TestPipelinedOutOfOrder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Read both requests before answering either, then answer in
		// reverse with payloads echoing the requested keys. The first
		// frame is already the client's first get.
		type pending struct {
			seq uint32
			key []byte
		}
		var reqs []pending
		for len(reqs) < 2 {
			seq, body, err := readFrameSeq(conn)
			if err != nil {
				return
			}
			req, err := decodeRequest(body)
			if err != nil {
				return
			}
			reqs = append(reqs, pending{seq: seq, key: append([]byte(nil), req.Key...)})
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			writeFrameSeq(conn, reqs[i].seq, encodeResponse(StatusOK, append([]byte("val-"), reqs[i].key...)))
		}
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	p := cl.Pipeline()
	fa := p.Get(ctx, []byte("A"), 1)
	fb := p.Get(ctx, []byte("B"), 1)
	va, err := fa.Value()
	if err != nil || string(va) != "val-A" {
		t.Fatalf("future A = %q, %v (mismatched despite reversed replies)", va, err)
	}
	vb, err := fb.Value()
	if err != nil || string(vb) != "val-B" {
		t.Fatalf("future B = %q, %v", vb, err)
	}
}

// TestPipelineEndToEnd drives many concurrent futures through the real
// server and reads everything back — the race-detector workout for the
// concurrent dispatch + response writer path.
func TestPipelineEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	_, cl := startServerReg(t, reg)
	ctx := context.Background()
	p := cl.Pipeline()
	const n = 200
	futures := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("pipe-%03d", i))
		futures = append(futures, p.Put(ctx, key, 1, key, false))
	}
	if err := Wait(futures...); err != nil {
		t.Fatal(err)
	}
	gets := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		gets = append(gets, p.Get(ctx, []byte(fmt.Sprintf("pipe-%03d", i)), 1))
	}
	for i, f := range gets {
		val, err := f.Value()
		want := fmt.Sprintf("pipe-%03d", i)
		if err != nil || string(val) != want {
			t.Fatalf("get %d = %q, %v", i, val, err)
		}
	}
	// The gauge drained once every reply was delivered. Read it from
	// the registry, not OpMetrics: a wire request would count itself.
	if got := reg.Snapshot()["server.pipeline.inflight"]; got != int64(0) {
		t.Fatalf("server.pipeline.inflight = %v, want 0 after drain", got)
	}
}

// TestBatchPartialFailure verifies one bad sub-op neither fails the
// frame nor blocks its siblings, and that the per-op error keeps
// sentinel identity.
func TestBatchPartialFailure(t *testing.T) {
	reg := metrics.NewRegistry()
	_, cl := startServerReg(t, reg)
	ctx := context.Background()
	b := cl.Batcher()
	if err := b.Put(ctx, []byte("good-1"), 1, []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	// Del of a key that never existed: the engine rejects it.
	if err := b.Del(ctx, []byte("no-prior"), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(ctx, []byte("good-2"), 1, []byte("v2"), false); err != nil {
		t.Fatal(err)
	}
	err := b.Flush(ctx)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("Flush err = %v, want *BatchError", err)
	}
	if be.Ops != 3 || len(be.Failed) != 1 || be.Failed[0].Index != 1 {
		t.Fatalf("BatchError = %+v", be)
	}
	if string(be.Failed[0].Op.Key) != "no-prior" {
		t.Fatalf("failed op key = %q", be.Failed[0].Op.Key)
	}
	// Siblings landed.
	for _, k := range []string{"good-1", "good-2"} {
		if _, err := cl.GetContext(ctx, []byte(k), 1); err != nil {
			t.Fatalf("sibling %s lost: %v", k, err)
		}
	}
	// server.batch.ops counted the sub-ops.
	m, _ := cl.MetricsContext(ctx)
	if got, ok := m["server.batch.ops"].(float64); !ok || got != 3 {
		t.Fatalf("server.batch.ops = %#v", m["server.batch.ops"])
	}
}

// TestBatchSentinelAcrossWire pins errors.Is(err, core.ErrNotFound) for
// a batched delete of a missing key — the StatusError consolidation.
func TestBatchSentinelAcrossWire(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	b := cl.Batcher()
	if err := b.Del(ctx, []byte("never-existed"), 1); err != nil {
		t.Fatal(err)
	}
	err := b.Flush(ctx)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("Flush err = %v", err)
	}
	if !errors.Is(be.Failed[0].Err, core.ErrNotFound) {
		t.Fatalf("sub-op err = %v, want core.ErrNotFound identity", be.Failed[0].Err)
	}
	// The aggregate unwraps to the first failure too.
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("aggregate err = %v, want core.ErrNotFound identity", err)
	}
}

// TestBatcherAutoFlush verifies the op-count bound flushes eagerly.
func TestBatcherAutoFlush(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	b := cl.Batcher().SetLimits(8, 1<<20)
	for i := 0; i < 20; i++ {
		if err := b.Put(ctx, []byte(fmt.Sprintf("af-%02d", i)), 1, []byte("v"), false); err != nil {
			t.Fatal(err)
		}
	}
	if b.Pending() >= 8 {
		t.Fatalf("Pending = %d, auto-flush never fired", b.Pending())
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	entries, _, err := cl.RangeContext(ctx, []byte("af-"), []byte("af-~"), 0)
	if err != nil || len(entries) != 20 {
		t.Fatalf("Range = %d entries, %v", len(entries), err)
	}
}

// TestStatusErrorIdentity pins the single-request error consolidation:
// engine sentinels hold across the wire.
func TestStatusErrorIdentity(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	_, err := cl.GetContext(ctx, []byte("absent"), 1)
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want core.ErrNotFound", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != StatusNotFound {
		t.Fatalf("err = %#v, want *StatusError{StatusNotFound}", err)
	}
}

// TestRangeAppliedLimit pins the limit<=0 semantics: zero asks for the
// server default and the reply reports what was applied; explicit
// limits echo back; oversized asks clamp to the cap.
func TestRangeAppliedLimit(t *testing.T) {
	s, cl := startServer(t)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := cl.PutContext(ctx, []byte(fmt.Sprintf("rl-%02d", i)), 1, []byte("v"), false); err != nil {
			t.Fatal(err)
		}
	}
	entries, applied, err := cl.RangeContext(ctx, nil, nil, 0)
	if err != nil || len(entries) != 10 {
		t.Fatalf("Range(0) = %d entries, %v", len(entries), err)
	}
	if applied != s.backend.rangeCap {
		t.Fatalf("applied = %d, want server default %d", applied, s.backend.rangeCap)
	}
	if _, applied, _ = cl.RangeContext(ctx, nil, nil, 7); applied != 7 {
		t.Fatalf("applied = %d, want 7", applied)
	}
	if _, applied, _ = cl.RangeContext(ctx, nil, nil, -5); applied != s.backend.rangeCap {
		t.Fatalf("negative limit applied = %d, want server default", applied)
	}
	if _, applied, _ = cl.RangeContext(ctx, nil, nil, s.backend.rangeCap+999); applied != s.backend.rangeCap {
		t.Fatalf("oversized limit applied = %d, want cap %d", applied, s.backend.rangeCap)
	}
}

// TestDeadlineExpiryMidFrame verifies a context deadline fires while a
// response is outstanding (the scripted server swallows the first
// request), and that the connection heals on the next call.
func TestDeadlineExpiryMidFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				reqs := 0
				for {
					seq, body, err := readFrameSeq(conn)
					if err != nil {
						return
					}
					if req, err := decodeRequest(body); err != nil || req.Op != OpPing {
						return // the first frame must be the ping itself
					}
					reqs++
					if reqs == 1 {
						continue // swallow: the client's deadline must fire
					}
					writeFrameSeq(conn, seq, encodeResponse(StatusOK, []byte("pong")))
				}
			}(conn)
		}
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = cl.PingContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline did not bound the wait")
	}
	// The stream stayed synced (the late response is discarded by seq),
	// so the same connection keeps working.
	if err := cl.PingContext(context.Background()); err != nil {
		t.Fatalf("post-deadline ping: %v", err)
	}
}

// TestDialTimeoutOption verifies WithTimeout supplies a default
// deadline when the context has none.
func TestDialTimeoutOption(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Never answer anything.
		for {
			if _, _, err := readFrameSeq(conn); err != nil {
				return
			}
		}
	}()
	cl, err := Dial(ln.Addr().String(), WithTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.PingContext(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from WithTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("WithTimeout did not bound the wait")
	}
}

// TestPoolSpreadsConnections verifies WithPoolSize dials distinct
// connections and the server sees them all.
func TestPoolSpreadsConnections(t *testing.T) {
	s, _ := startServer(t)
	cl, err := Dial(s.Addr().String(), WithPoolSize(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("pool-%02d", i))
			if err := cl.PutContext(ctx, key, 1, key, false); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st, err := cl.StatsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Conns < 4 { // 3 pooled + the startServer client
		t.Fatalf("Conns = %d, want >= 4", st.Conns)
	}
}

// TestMaxInFlightBackpressure floods one connection far past its window
// and verifies everything still completes exactly once.
func TestMaxInFlightBackpressure(t *testing.T) {
	s, _ := startServer(t)
	s.SetMaxInFlight(4)
	cl, err := Dial(s.Addr().String(), WithMaxInFlight(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	p := cl.Pipeline()
	const n = 100
	futures := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("bp-%03d", i))
		futures = append(futures, p.Put(ctx, key, 1, key, false))
	}
	if err := Wait(futures...); err != nil {
		t.Fatal(err)
	}
	entries, _, err := cl.RangeContext(ctx, []byte("bp-"), []byte("bp-~"), 0)
	if err != nil || len(entries) != n {
		t.Fatalf("Range = %d entries, %v", len(entries), err)
	}
}

// TestV2FrameCodec round-trips the seq framing and rejects runts.
func TestV2FrameCodec(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrameSeq(&buf, 42, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	seq, body, err := readFrameSeq(&buf)
	if err != nil || seq != 42 || string(body) != "hello" {
		t.Fatalf("round trip = %d, %q, %v", seq, body, err)
	}
	// A frame shorter than its own seq field is malformed.
	var runt bytes.Buffer
	hdr := binary.LittleEndian.AppendUint32(nil, 2)
	runt.Write(hdr)
	runt.Write([]byte{0, 0})
	if _, _, err := readFrameSeq(&runt); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("runt err = %v", err)
	}
}

// TestBatchCodec round-trips batch bodies and replies, and rejects
// count mismatches and non-batchable ops.
func TestBatchCodec(t *testing.T) {
	ops := []BatchOp{
		{Op: OpPut, Version: 3, Key: []byte("a"), Value: []byte("va")},
		{Op: OpPutDedup, Version: 4, Key: []byte("b")},
		{Op: OpDel, Version: 3, Key: []byte("c")},
		{Op: OpDropVersion, Version: 1},
	}
	packed, err := encodeBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeBatch(packed, len(ops))
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range decoded {
		if req.Op != ops[i].Op || req.Version != ops[i].Version ||
			!bytes.Equal(req.Key, ops[i].Key) || !bytes.Equal(req.Value, ops[i].Value) {
			t.Fatalf("sub-op %d = %+v, want %+v", i, req, ops[i])
		}
	}
	if _, err := decodeBatch(packed, len(ops)+1); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("count mismatch err = %v", err)
	}
	if _, err := encodeBatch([]BatchOp{{Op: OpGet, Key: []byte("x")}}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("non-batchable err = %v", err)
	}
	reply := encodeBatchReply([]subStatus{
		{status: StatusOK},
		{status: StatusNotFound, msg: []byte("missing")},
	})
	statuses, err := decodeBatchReply(reply)
	if err != nil || len(statuses) != 2 {
		t.Fatalf("reply = %+v, %v", statuses, err)
	}
	if statuses[1].status != StatusNotFound || string(statuses[1].msg) != "missing" {
		t.Fatalf("reply[1] = %+v", statuses[1])
	}
	// A count the body cannot carry is refused, not allocated for.
	if _, err := decodeBatchReply([]byte{0xff, 0xff, 0xff, 0xff}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("huge count err = %v", err)
	}
}
