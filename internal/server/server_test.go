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
	"testing/quick"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/ssd"
)

func startServer(t *testing.T) (*Server, *Client) {
	return startServerReg(t, nil)
}

func startServerReg(t *testing.T, reg *metrics.Registry) (*Server, *Client) {
	t.Helper()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(256 << 20))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 4 << 20, GCThreshold: 0.25}, Seed: 1,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)
	s.SetLogf(nil)
	s.SetMetrics(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		db.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Close")
		}
	})
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return s, cl
}

func TestPingPutGetDel(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	if err := cl.PingContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutContext(ctx, []byte("k"), 1, []byte("hello"), false); err != nil {
		t.Fatal(err)
	}
	val, err := cl.GetContext(ctx, []byte("k"), 1)
	if err != nil || string(val) != "hello" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	if err := cl.DelContext(ctx, []byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetContext(ctx, []byte("k"), 1); !errors.Is(err, core.ErrDeleted) {
		t.Fatalf("Get after Del err = %v", err)
	}
	if _, err := cl.GetContext(ctx, []byte("missing"), 1); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Get missing err = %v", err)
	}
}

func TestDedupOverWire(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	if err := cl.PutContext(ctx, []byte("k"), 1, []byte("base"), false); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutContext(ctx, []byte("k"), 2, nil, true); err != nil {
		t.Fatal(err)
	}
	val, err := cl.GetContext(ctx, []byte("k"), 2)
	if err != nil || string(val) != "base" {
		t.Fatalf("dedup Get = %q, %v", val, err)
	}
}

func TestHasAndDropVersion(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	cl.PutContext(ctx, []byte("a"), 1, []byte("v"), false)
	cl.PutContext(ctx, []byte("a"), 2, []byte("v"), false)
	ok, err := cl.HasContext(ctx, []byte("a"), 1)
	if err != nil || !ok {
		t.Fatalf("Has = %v, %v", ok, err)
	}
	if err := cl.DropVersionContext(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if ok, _ := cl.HasContext(ctx, []byte("a"), 1); ok {
		t.Fatal("Has should be false after DropVersion")
	}
	if ok, _ := cl.HasContext(ctx, []byte("a"), 2); !ok {
		t.Fatal("v2 should survive")
	}
}

func TestRangeOverWire(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		cl.PutContext(ctx, []byte(fmt.Sprintf("key-%02d", i)), 1, []byte("v"), false)
	}
	entries, _, err := cl.RangeContext(ctx, []byte("key-02"), []byte("key-07"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("Range = %d entries, want 5", len(entries))
	}
	if string(entries[0].Key) != "key-02" || entries[0].Version != 1 {
		t.Fatalf("first entry = %+v", entries[0])
	}
	// Limit applies.
	entries, _, err = cl.RangeContext(ctx, nil, nil, 3)
	if err != nil || len(entries) != 3 {
		t.Fatalf("limited Range = %d, %v", len(entries), err)
	}
}

func TestStatsOverWire(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	cl.PutContext(ctx, []byte("k"), 1, bytes.Repeat([]byte{1}, 1000), false)
	st, err := cl.StatsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Puts != 1 || st.Engine.UserWriteBytes != 1001 {
		t.Fatalf("Stats = %+v", st.Engine)
	}
	if st.Conns < 1 {
		t.Fatalf("Conns = %d", st.Conns)
	}
}

func TestLargeValue(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	val := bytes.Repeat([]byte{0xAB}, 2<<20)
	if err := cl.PutContext(ctx, []byte("big"), 1, val, false); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetContext(ctx, []byte("big"), 1)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("large round-trip failed: %d bytes, %v", len(got), err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s, _ := startServer(t)
	ctx := context.Background()
	addr := s.Addr().String()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 100; i++ {
				key := []byte(fmt.Sprintf("c%d-k%03d", c, i))
				if err := cl.PutContext(ctx, key, 1, key, false); err != nil {
					errCh <- err
					return
				}
				got, err := cl.GetContext(ctx, key, 1)
				if err != nil || !bytes.Equal(got, key) {
					errCh <- fmt.Errorf("round-trip %s: %v", key, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestMalformedFrameGetsError(t *testing.T) {
	s, _ := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A 2-byte body is too short for any request.
	if err := writeFrameSeq(conn, 1, []byte{OpGet, 0}); err != nil {
		t.Fatal(err)
	}
	seq, frame, err := readFrameSeq(conn)
	if err != nil || seq != 1 {
		t.Fatalf("reply seq %d, %v", seq, err)
	}
	status, payload, err := decodeResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusFailed || len(payload) == 0 {
		t.Fatalf("status = %d, payload = %q", status, payload)
	}
	// A flagged frame too short for its trace header fails the same
	// way, and the seq comes back without the flag.
	if err := writeFrameSeq(conn, 2|seqTraceFlag, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	seq, frame, err = readFrameSeq(conn)
	if err != nil || seq != 2 {
		t.Fatalf("reply seq %d, %v", seq, err)
	}
	if status, _, _ := decodeResponse(frame); status != StatusFailed {
		t.Fatalf("short trace header status = %d", status)
	}
	// The connection stays usable.
	body, _ := encodeRequest(request{Op: OpPing})
	writeFrameSeq(conn, 3, body)
	_, frame, err = readFrameSeq(conn)
	if err != nil {
		t.Fatal(err)
	}
	if status, payload, _ := decodeResponse(frame); status != StatusOK || string(payload) != "pong" {
		t.Fatal("connection unusable after protocol error")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	if _, err := encodeRequest(request{Op: OpPut, Key: make([]byte, aof.MaxKeyLen+1)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize key err = %v", err)
	}
	if _, err := encodeRequest(request{Op: OpPut, Key: []byte("k"), Value: make([]byte, MaxValueLen+1)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize value err = %v", err)
	}
	// A frame header declaring more than the cap is refused before its
	// body is read.
	hdr := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	if _, _, err := readFrameSeq(bytes.NewReader(append(hdr, 0, 0, 0, 0))); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize frame err = %v", err)
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	// Covered by the startServer cleanup; this exercises double Close.
	s, _ := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double Close should be a no-op")
	}
}

// Property: a request round-trips through encoding and framing with
// arbitrary payloads and sequence numbers.
func TestQuickProtocolRoundTrip(t *testing.T) {
	f := func(seq uint32, op uint8, version uint64, key, value []byte) bool {
		if len(key) > aof.MaxKeyLen || len(value) > 1<<16 {
			return true
		}
		req := request{Op: op, Version: version, Key: key, Value: value}
		body, err := encodeRequest(req)
		if err != nil {
			return false
		}
		gotSeq, frame, err := readFrameSeq(bytes.NewReader(appendFrameSeq(nil, seq, body)))
		if err != nil || gotSeq != seq {
			return false
		}
		got, err := decodeRequest(frame)
		if err != nil {
			return false
		}
		return got.Op == op && got.Version == version &&
			bytes.Equal(got.Key, key) && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpMetricsRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	_, cl := startServerReg(t, reg)
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		key := []byte(fmt.Sprintf("mk-%02d", i))
		if err := cl.PutContext(ctx, key, 1, []byte("payload"), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.GetContext(ctx, []byte("mk-00"), 1); err != nil {
		t.Fatal(err)
	}

	m, err := cl.MetricsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Engine metrics flow through: histogram count matches the puts.
	putLat, ok := m["qindb.put.latency_us"].(map[string]any)
	if !ok || putLat["count"].(float64) != 10 {
		t.Fatalf("qindb.put.latency_us = %#v", m["qindb.put.latency_us"])
	}
	if putLat["p99"].(float64) > putLat["max"].(float64) {
		t.Fatalf("inconsistent snapshot over the wire: %#v", putLat)
	}
	// Server per-opcode counters.
	if got, ok := m["server.req.put"].(float64); !ok || got != 10 {
		t.Fatalf("server.req.put = %#v", m["server.req.put"])
	}
	if got, ok := m["server.req.get"].(float64); !ok || got != 1 {
		t.Fatalf("server.req.get = %#v", m["server.req.get"])
	}
	// AOF metrics propagated through the engine's store.
	if got, ok := m["aof.appends"].(float64); !ok || got < 10 {
		t.Fatalf("aof.appends = %#v", m["aof.appends"])
	}
	// Software WA is present and finite (>= 1: the AOF framing adds
	// bytes on top of the user payload).
	wa, ok := m["qindb.software_wa"].(float64)
	if !ok || wa < 1 || wa > 100 {
		t.Fatalf("qindb.software_wa = %#v", m["qindb.software_wa"])
	}
	// Connection gauge counts this client.
	if got, ok := m["server.conns.active"].(float64); !ok || got < 1 {
		t.Fatalf("server.conns.active = %#v", m["server.conns.active"])
	}
}

func TestOpMetricsUninstrumented(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	m, err := cl.MetricsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 0 {
		t.Fatalf("uninstrumented server returned %v", m)
	}
}
