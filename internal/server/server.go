package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"directload/internal/core"
	"directload/internal/metrics"
)

// defaultMaxInFlight bounds concurrent dispatch per connection when the
// operator does not configure one.
const defaultMaxInFlight = 64

// maxCoalesce caps how many response bytes the writer accumulates
// before forcing a write, bounding both latency and buffer growth.
const maxCoalesce = 64 << 10

// StatsReply is the JSON payload of OpStats.
type StatsReply struct {
	Engine core.Stats `json:"engine"`
	Conns  int        `json:"conns"`
}

// Server exposes one QinDB engine on a TCP listener, one reader
// goroutine per connection. Each connection is pipelined from its first
// frame: up to MaxInFlight requests are dispatched concurrently while a
// dedicated writer goroutine serializes responses back onto the wire.
//
// The Server owns only the binary wire: framing, sequence numbers,
// trace headers, response encoding. Every request executes through its
// Backend, which alternate front doors (internal/resp) share.
type Server struct {
	backend *Backend

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	logf   func(format string, args ...any)

	// Tuning knobs, atomic so they may be adjusted while serving.
	// maxInFlight applies to connections accepted after the change; the
	// deadlines apply from each connection's next frame.
	maxInFlight  atomic.Int32
	readTimeout  atomic.Int64 // nanoseconds; 0 disables
	writeTimeout atomic.Int64 // nanoseconds; 0 disables
}

// serverMetrics holds per-opcode request counters and wall-clock latency
// histograms, indexed by opcode. All handles nil without a registry.
type serverMetrics struct {
	reqs     [opMax + 1]*metrics.Counter
	lat      [opMax + 1]*metrics.Histogram
	allocB   [opMax + 1]*metrics.Histogram // sampled alloc bytes per request
	badReqs  *metrics.Counter
	conns    *metrics.Gauge
	inflight *metrics.Gauge   // server.pipeline.inflight: requests being dispatched
	batchOps *metrics.Counter // server.batch.ops: sub-ops applied via OpBatch
}

// SetMetrics attaches a registry (exported via OpMetrics and, in qindbd,
// HTTP). Call before Serve; nil leaves the server uninstrumented.
func (s *Server) SetMetrics(reg *metrics.Registry) {
	s.backend.SetMetrics(reg)
}

// SetAttribution enables sampled per-opcode resource attribution on the
// shared backend (one request in every measured; <= 0 disables).
func (s *Server) SetAttribution(every int) {
	s.backend.SetAttribution(every)
}

// New wraps an engine. The caller keeps ownership of db and must close
// it after the server stops.
func New(db *core.DB) *Server {
	return NewWithBackend(NewBackend(db))
}

// NewWithBackend builds a native listener over an existing Backend —
// the sharing point for multi-protocol deployments: qindbd hands one
// Backend to both this server and the RESP front door, so both wires
// hit one engine with one set of metrics.
func NewWithBackend(b *Backend) *Server {
	s := &Server{
		backend: b,
		conns:   make(map[net.Conn]bool),
		logf:    log.Printf,
	}
	s.maxInFlight.Store(defaultMaxInFlight)
	return s
}

// Backend returns the server's execution backend, shared with any
// additional front doors.
func (s *Server) Backend() *Backend {
	return s.backend
}

// SetLogf replaces the server's logger (nil silences it).
func (s *Server) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// SetMaxInFlight bounds concurrent dispatch per connection — the
// backpressure knob: once a connection has n requests being served, the
// server stops reading from it until responses drain. Values < 1 reset
// the default. Safe at runtime; applies to connections accepted after
// the call.
func (s *Server) SetMaxInFlight(n int) {
	if n < 1 {
		n = defaultMaxInFlight
	}
	s.maxInFlight.Store(int32(n))
}

// SetTimeouts installs per-frame read and write deadlines (zero
// disables either). The read deadline doubles as an idle timeout: a
// connection that sends nothing for `read` is torn down. Safe at
// runtime; applies from each connection's next frame.
func (s *Server) SetTimeouts(read, write time.Duration) {
	s.readTimeout.Store(int64(read))
	s.writeTimeout.Store(int64(write))
}

// SetSlowLog attaches a slow-op log; every dispatched request whose
// wall-clock latency reaches the log's threshold is recorded with its
// opcode, key prefix, and trace ID. Nil detaches. Safe at runtime.
func (s *Server) SetSlowLog(l *metrics.SlowLog) {
	s.backend.SetSlowLog(l)
}

// SlowLog returns the attached slow-op log (nil when none).
func (s *Server) SlowLog() *metrics.SlowLog {
	return s.backend.SlowLog()
}

// SetReadSLO attaches a read-availability SLO tracker: every dispatched
// OpGet feeds it one event — good when the get answered StatusOK, bad
// on not-found or failure. Nil detaches. Safe at runtime.
func (s *Server) SetReadSLO(slo *metrics.SLO) {
	s.backend.SetReadSLO(slo)
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr ("host:port", port 0 for ephemeral) and
// serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting and tears down open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// seqResp pairs a response body with the sequence number it answers.
type seqResp struct {
	seq  uint32
	body []byte
}

// handle serves one connection: the reader admits up to maxInFlight
// requests (the backpressure gate — beyond that it stops reading, which
// pushes back through TCP flow control), each dispatched on its own
// goroutine; a single writer goroutine serializes the out-of-order
// completions back onto the wire, coalescing whatever has accumulated
// into one write per syscall. A request frame whose seq carries
// seqTraceFlag is preceded by a trace header; the span context it names
// parents every span the handler records, and the flag is masked off
// before the seq is echoed.
func (s *Server) handle(conn net.Conn) {
	s.backend.ConnOpened()
	defer s.backend.ConnClosed()
	defer s.dropConn(conn)
	br := bufio.NewReader(conn)
	maxInFlight := int(s.maxInFlight.Load())
	respCh := make(chan seqResp, maxInFlight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var werr error
		var buf []byte
		for r := range respCh {
			if werr != nil {
				continue // conn is dead; drain so workers never block
			}
			buf = appendFrameSeq(buf[:0], r.seq, r.body)
		coalesce:
			for len(buf) < maxCoalesce {
				select {
				case r, ok := <-respCh:
					if !ok {
						break coalesce
					}
					buf = appendFrameSeq(buf, r.seq, r.body)
				default:
					break coalesce
				}
			}
			if wt := time.Duration(s.writeTimeout.Load()); wt > 0 {
				conn.SetWriteDeadline(time.Now().Add(wt))
			}
			if _, werr = conn.Write(buf); werr != nil {
				conn.Close() // unblock the reader
			}
		}
	}()

	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for {
		if rt := time.Duration(s.readTimeout.Load()); rt > 0 {
			conn.SetReadDeadline(time.Now().Add(rt))
		}
		seq, body, err := readFrameSeq(br)
		if err != nil {
			break
		}
		var sc metrics.SpanContext
		var derr error
		if seq&seqTraceFlag != 0 {
			seq &^= seqTraceFlag
			sc, body, derr = splitTraceHeader(body)
		}
		var req request
		if derr == nil {
			req, derr = decodeRequest(body)
		}
		sem <- struct{}{}
		s.backend.met.inflight.Add(1)
		wg.Add(1)
		go func(seq uint32, req request, sc metrics.SpanContext, derr error) {
			defer wg.Done()
			var resp []byte
			if derr != nil {
				s.backend.met.badReqs.Inc()
				resp = encodeResponse(StatusFailed, []byte(derr.Error()))
			} else {
				ctx := metrics.ContextWithSpan(context.Background(), sc)
				resp = s.dispatch(ctx, req)
			}
			// Decrement before queueing the response so the gauge
			// never reads >0 after the client has seen every reply.
			s.backend.met.inflight.Add(-1)
			respCh <- seqResp{seq: seq, body: resp}
			<-sem
		}(seq, req, sc, derr)
	}
	wg.Wait()
	close(respCh)
	<-writerDone
}

// dispatch executes one request through the Backend and encodes the
// reply onto the binary wire. The Backend owns the transport-agnostic
// work — engine execution, wall-clock timing, per-opcode metrics, the
// read SLO, the slowlog and the handler span — so the native and RESP
// listeners report identically; this function owns only the response
// encoding.
func (s *Server) dispatch(ctx context.Context, req request) []byte {
	if req.Op < OpPut || req.Op > opMax || opNames[req.Op] == "" {
		s.backend.met.badReqs.Inc()
		return encodeResponse(StatusFailed, []byte("unknown op"))
	}
	b := s.backend
	switch req.Op {
	case OpPing:
		if err := b.Ping(ctx); err != nil {
			return errResponse(err)
		}
		return encodeResponse(StatusOK, []byte("pong"))
	case OpPut, OpPutDedup:
		return statusOnly(b.Put(ctx, req.Key, req.Version, req.Value, req.Op == OpPutDedup))
	case OpGet:
		val, err := b.Get(ctx, req.Key, req.Version)
		if err != nil {
			return errResponse(err)
		}
		return encodeResponse(StatusOK, val)
	case OpDel:
		return statusOnly(b.Del(ctx, req.Key, req.Version))
	case OpDropVersion:
		return statusOnly(b.DropVersion(ctx, req.Version))
	case OpHas:
		ok, err := b.Has(ctx, req.Key, req.Version)
		if err != nil {
			return errResponse(err)
		}
		if ok {
			return encodeResponse(StatusOK, []byte{1})
		}
		return encodeResponse(StatusOK, []byte{0})
	case OpStats:
		reply, err := b.Stats(ctx)
		if err != nil {
			return errResponse(err)
		}
		payload, err := json.Marshal(reply)
		if err != nil {
			return errResponse(err)
		}
		return encodeResponse(StatusOK, payload)
	case OpRange:
		// Key = from, Value = exclusive upper bound, Version = limit;
		// limit <= 0 selects the backend default, positive limits clamp
		// to it.
		entries, applied, err := b.Range(ctx, req.Key, req.Value, int(int64(req.Version)))
		if err != nil {
			return errResponse(err)
		}
		return encodeResponse(StatusOK, encodeRangeReply(applied, entries))
	case OpBatch:
		return s.dispatchBatch(ctx, req)
	case OpMetrics:
		payload, err := b.MetricsJSON(ctx)
		if err != nil {
			return errResponse(err)
		}
		return encodeResponse(StatusOK, payload)
	}
	return encodeResponse(StatusFailed, []byte("unknown op"))
}

// dispatchBatch decodes one OpBatch frame and applies it through the
// Backend with native semantics: sub-op failures are reported
// individually; the frame itself succeeds unless it is malformed.
func (s *Server) dispatchBatch(ctx context.Context, req request) []byte {
	subs, err := decodeBatch(req.Value, int(req.Version))
	if err != nil {
		s.backend.met.badReqs.Inc()
		return encodeResponse(StatusFailed, []byte(err.Error()))
	}
	ops := make([]BatchOp, len(subs))
	for i, sub := range subs {
		ops[i] = BatchOp{Op: sub.Op, Version: sub.Version, Key: sub.Key, Value: sub.Value}
	}
	results := s.backend.Batch(ctx, ops)
	statuses := make([]subStatus, len(results))
	for i, r := range results {
		statuses[i] = subStatusOf(r.Err)
	}
	return encodeResponse(StatusOK, encodeBatchReply(statuses))
}

// subStatusOf maps a sub-op error onto its wire status.
func subStatusOf(err error) subStatus {
	if err == nil {
		return subStatus{status: StatusOK}
	}
	return subStatus{status: statusCode(err), msg: []byte(err.Error())}
}

// statusCode maps an engine error onto a wire status byte.
func statusCode(err error) uint8 {
	switch {
	case errors.Is(err, core.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, core.ErrDeleted):
		return StatusDeleted
	default:
		return StatusFailed
	}
}

func statusOnly(err error) []byte {
	if err != nil {
		return errResponse(err)
	}
	return encodeResponse(StatusOK, nil)
}

func errResponse(err error) []byte {
	return encodeResponse(statusCode(err), []byte(err.Error()))
}
