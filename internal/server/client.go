package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"directload/internal/metrics"
)

// errClientClosed reports use after Close.
var errClientClosed = errors.New("qindb client: closed")

// dialOptions collects the functional Dial configuration.
type dialOptions struct {
	timeout     time.Duration // default per-op deadline (0 = none)
	poolSize    int           // connections in the pool
	maxInFlight int           // per-connection pipelining bound
	reg         *metrics.Registry
}

// DialOption configures Dial.
type DialOption func(*dialOptions)

// WithTimeout sets the default per-operation deadline, applied whenever
// a call's context carries none. It also bounds the TCP dial. Zero (the
// default) means no deadline.
func WithTimeout(d time.Duration) DialOption {
	return func(o *dialOptions) { o.timeout = d }
}

// WithPoolSize dials n connections and spreads requests across them
// round-robin — concurrent callers stop contending for one wire.
// Values < 1 mean 1.
func WithPoolSize(n int) DialOption {
	return func(o *dialOptions) { o.poolSize = n }
}

// WithMaxInFlight bounds the number of pipelined requests outstanding
// per connection; further calls block until responses drain (the
// client-side backpressure knob). Values < 1 reset the default.
func WithMaxInFlight(n int) DialOption {
	return func(o *dialOptions) { o.maxInFlight = n }
}

// WithMetrics attaches a registry for the client-side pool gauges:
// client.pool.conns (connections dialed) and client.pool.inflight
// (requests currently outstanding across the pool).
func WithMetrics(reg *metrics.Registry) DialOption {
	return func(o *dialOptions) { o.reg = reg }
}

// Client is a QinDB client over a small pool of TCP connections. It is
// safe for concurrent use. Requests are pipelined: many calls share one
// connection simultaneously and complete out of order. Every method
// takes a context and honors its deadline and cancellation; a call
// whose context carries an active span (see metrics.ContextWithSpan)
// ships that span's identity in the request frame, and the server
// parents its handler spans under it.
type Client struct {
	addr string
	opts dialOptions

	mu     sync.Mutex // guards conns slots (lazy redial) and closed
	conns  []*wireConn
	closed bool
	rr     atomic.Uint32

	poolConns *metrics.Gauge
	inflight  *metrics.Gauge
}

// Dial connects to a QinDB server. There is no handshake: a
// connection's first frame is the first request issued on it. Options
// configure deadlines, pool size and pipelining depth; Dial(addr) alone
// opens a single connection.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	o := dialOptions{poolSize: 1, maxInFlight: defaultMaxInFlight}
	for _, opt := range opts {
		opt(&o)
	}
	if o.poolSize < 1 {
		o.poolSize = 1
	}
	if o.maxInFlight < 1 {
		o.maxInFlight = defaultMaxInFlight
	}
	c := &Client{
		addr:      addr,
		opts:      o,
		conns:     make([]*wireConn, o.poolSize),
		poolConns: o.reg.Gauge("client.pool.conns"),
		inflight:  o.reg.Gauge("client.pool.inflight"),
	}
	for i := range c.conns {
		w, err := dialWire(addr, o)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns[i] = w
		c.poolConns.Add(1)
	}
	return c, nil
}

// Close tears down every pooled connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var errs []error
	for _, w := range c.conns {
		if w == nil {
			continue
		}
		if err := w.close(); err != nil {
			errs = append(errs, err)
		}
		c.poolConns.Add(-1)
	}
	return errors.Join(errs...)
}

// pick returns a healthy pooled connection, redialing a broken slot in
// place (a node restart heals on the next call instead of poisoning
// 1/poolSize of all traffic).
func (c *Client) pick() (*wireConn, error) {
	i := int(c.rr.Add(1)) % len(c.conns)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	w := c.conns[i]
	if w != nil && !w.broken() {
		return w, nil
	}
	if w != nil {
		w.close()
	}
	nw, err := dialWire(c.addr, c.opts)
	if err != nil {
		if c.conns[i] != nil {
			c.poolConns.Add(-1)
		}
		c.conns[i] = nil
		return nil, err
	}
	if c.conns[i] == nil {
		c.poolConns.Add(1)
	}
	c.conns[i] = nw
	return nw, nil
}

// withTimeout applies the configured default deadline when ctx carries
// none.
func (c *Client) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.opts.timeout <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.opts.timeout)
}

// do runs one request through the pool.
func (c *Client) do(ctx context.Context, req request) (uint8, []byte, error) {
	body, err := encodeRequest(req)
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	w, err := c.pick()
	if err != nil {
		return 0, nil, err
	}
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	return w.call(ctx, body)
}

// --- context-aware API ------------------------------------------------------

// PutContext stores value under (key, version); dedup marks a
// value-stripped entry whose payload lives in an older version.
func (c *Client) PutContext(ctx context.Context, key []byte, version uint64, value []byte, dedup bool) error {
	op := OpPut
	if dedup {
		op = OpPutDedup
	}
	status, payload, err := c.do(ctx, request{Op: op, Version: version, Key: key, Value: value})
	if err != nil {
		return err
	}
	return statusErr(status, payload)
}

// GetContext fetches the value at (key, version), following dedup
// traceback server-side.
func (c *Client) GetContext(ctx context.Context, key []byte, version uint64) ([]byte, error) {
	status, payload, err := c.do(ctx, request{Op: OpGet, Version: version, Key: key})
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// DelContext marks (key, version) deleted.
func (c *Client) DelContext(ctx context.Context, key []byte, version uint64) error {
	status, payload, err := c.do(ctx, request{Op: OpDel, Version: version, Key: key})
	if err != nil {
		return err
	}
	return statusErr(status, payload)
}

// DropVersionContext retires a whole data version.
func (c *Client) DropVersionContext(ctx context.Context, version uint64) error {
	status, payload, err := c.do(ctx, request{Op: OpDropVersion, Version: version})
	if err != nil {
		return err
	}
	return statusErr(status, payload)
}

// HasContext reports whether (key, version) exists and is live.
func (c *Client) HasContext(ctx context.Context, key []byte, version uint64) (bool, error) {
	status, payload, err := c.do(ctx, request{Op: OpHas, Version: version, Key: key})
	if err != nil {
		return false, err
	}
	if err := statusErr(status, payload); err != nil {
		return false, err
	}
	return len(payload) == 1 && payload[0] == 1, nil
}

// RangeContext lists newest-live (key, version) pairs in [from, to).
// limit <= 0 requests the server default; the second return value is
// the limit the server actually applied (its cap clamps large asks).
func (c *Client) RangeContext(ctx context.Context, from, to []byte, limit int) ([]RangeEntry, int, error) {
	status, payload, err := c.do(ctx, request{
		Op: OpRange, Version: uint64(int64(limit)), Key: from, Value: to,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := statusErr(status, payload); err != nil {
		return nil, 0, err
	}
	return decodeRangeReply(payload)
}

// StatsContext fetches engine statistics.
func (c *Client) StatsContext(ctx context.Context) (StatsReply, error) {
	var out StatsReply
	status, payload, err := c.do(ctx, request{Op: OpStats})
	if err != nil {
		return out, err
	}
	if err := statusErr(status, payload); err != nil {
		return out, err
	}
	err = json.Unmarshal(payload, &out)
	return out, err
}

// MetricsContext fetches the server's metrics registry snapshot.
// Counter and gauge values decode as float64; histograms as nested maps
// (count, mean, p50, p99, ...). An uninstrumented server returns an
// empty map.
func (c *Client) MetricsContext(ctx context.Context) (map[string]any, error) {
	status, payload, err := c.do(ctx, request{Op: OpMetrics})
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, payload); err != nil {
		return nil, err
	}
	out := make(map[string]any)
	err = json.Unmarshal(payload, &out)
	return out, err
}

// PingContext checks liveness.
func (c *Client) PingContext(ctx context.Context) error {
	status, payload, err := c.do(ctx, request{Op: OpPing})
	if err != nil {
		return err
	}
	if err := statusErr(status, payload); err != nil {
		return err
	}
	if string(payload) != "pong" {
		return fmt.Errorf("qindb client: unexpected ping reply %q", payload)
	}
	return nil
}

// --- wire connection --------------------------------------------------------

// wireResp is one decoded response delivered to a waiter.
type wireResp struct {
	status  uint8
	payload []byte
	err     error
}

// wireConn is one TCP connection. A background reader demultiplexes
// responses to waiters by sequence number, so many calls can be in
// flight at once (bounded by sem).
type wireConn struct {
	c net.Conn

	// demux state.
	pmu     sync.Mutex
	nextSeq uint32
	pend    map[uint32]chan wireResp
	sem     chan struct{}
	done    chan struct{} // closed by the reader on connection death
	readErr error         // set before done is closed

	// write coalescing: senders append frames under fmu; the flush
	// goroutine drains the buffer with one write per syscall. Growth is
	// bounded by sem — at most maxInFlight frames can be buffered.
	fmu  sync.Mutex
	fbuf []byte
	fsig chan struct{} // capacity 1: "the buffer is non-empty"

	bad atomic.Bool // any I/O failure poisons the conn (stream unsynced)
}

// dialWire opens one connection and starts its reader and writer.
func dialWire(addr string, o dialOptions) (*wireConn, error) {
	nc, err := net.DialTimeout("tcp", addr, o.timeout)
	if err != nil {
		return nil, err
	}
	w := &wireConn{
		c:    nc,
		pend: make(map[uint32]chan wireResp),
		sem:  make(chan struct{}, o.maxInFlight),
		done: make(chan struct{}),
		fsig: make(chan struct{}, 1),
	}
	go w.readLoop(bufio.NewReader(nc))
	go w.flushLoop(o.timeout)
	return w, nil
}

// broken reports whether the connection is unusable.
func (w *wireConn) broken() bool { return w.bad.Load() }

// close tears the connection down; the read loop then fails any
// waiters.
func (w *wireConn) close() error {
	w.bad.Store(true)
	return w.c.Close()
}

// call pipelines one request: write it, then wait for its response.
func (w *wireConn) call(ctx context.Context, body []byte) (uint8, []byte, error) {
	pc, err := w.send(ctx, body)
	if err != nil {
		return 0, nil, err
	}
	return w.await(ctx, pc)
}

// pendingCall is one request that has been written but not yet
// answered.
type pendingCall struct {
	seq uint32
	ch  chan wireResp
}

// send acquires an in-flight slot, registers a sequence number, and
// queues the frame for the flush goroutine — the synchronous half of a
// pipelined call, cheap enough to run inline on the issuing goroutine.
// The slot is released when the response arrives (whether or not anyone
// awaits it) or the call is unregistered. Write failures surface
// through connection death rather than here.
func (w *wireConn) send(ctx context.Context, body []byte) (pendingCall, error) {
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return pendingCall{}, ctx.Err()
	case <-w.done:
		return pendingCall{}, w.readErr
	}

	ch := make(chan wireResp, 1)
	w.pmu.Lock()
	w.nextSeq = (w.nextSeq + 1) &^ seqTraceFlag // 31-bit: bit 31 flags a trace header
	seq := w.nextSeq
	w.pend[seq] = ch
	w.pmu.Unlock()

	// A call whose context carries an active span ships it: the seq's
	// high bit flags the frame and the trace header rides before the op.
	// The pending map and the response always use the unflagged seq.
	sc, traced := metrics.SpanFromContext(ctx)
	traced = traced && sc.Valid()
	w.fmu.Lock()
	if traced {
		w.fbuf = appendFrameSeqTrace(w.fbuf, seq|seqTraceFlag, sc, body)
	} else {
		w.fbuf = appendFrameSeq(w.fbuf, seq, body)
	}
	w.fmu.Unlock()
	select {
	case w.fsig <- struct{}{}:
	default: // a wakeup is already queued
	}
	return pendingCall{seq: seq, ch: ch}, nil
}

// flushLoop writes queued frames, coalescing everything that
// accumulated while the previous syscall was in flight into the next
// one. A write failure poisons the connection and closes it, which
// fails every pending call via the read loop.
func (w *wireConn) flushLoop(timeout time.Duration) {
	for {
		select {
		case <-w.fsig:
		case <-w.done:
			return
		}
		w.fmu.Lock()
		buf := w.fbuf
		w.fbuf = nil
		w.fmu.Unlock()
		if len(buf) == 0 {
			continue
		}
		if timeout > 0 {
			w.c.SetWriteDeadline(time.Now().Add(timeout))
		}
		if _, err := w.c.Write(buf); err != nil {
			w.bad.Store(true)
			w.c.Close() // the read loop fails all pending calls
			return
		}
	}
}

// await waits for the demuxed response, the context, or connection
// death. A cancellation or teardown can race with the response itself:
// if the reader already claimed the sequence number, its outcome is in
// flight to pc.ch, so take it rather than the wakeup's error. Otherwise
// unregistering guarantees no response will come (the reader discards
// unclaimed sequence numbers; the stream itself stays synced).
func (w *wireConn) await(ctx context.Context, pc pendingCall) (uint8, []byte, error) {
	select {
	case r := <-pc.ch:
		return r.status, r.payload, r.err
	case <-ctx.Done():
		if w.unregister(pc.seq) {
			return 0, nil, ctx.Err()
		}
	case <-w.done:
		if w.unregister(pc.seq) {
			return 0, nil, w.readErr
		}
	}
	r := <-pc.ch
	return r.status, r.payload, r.err
}

// unregister removes seq from the pending map, reporting whether this
// call removed it. Whoever removes the entry — this or the read loop —
// owns releasing the in-flight slot, so the release happens exactly
// once per sequence number. A false return means the reader claimed the
// call first and will deliver its outcome on the pending channel.
func (w *wireConn) unregister(seq uint32) bool {
	w.pmu.Lock()
	_, ok := w.pend[seq]
	delete(w.pend, seq)
	w.pmu.Unlock()
	if ok {
		<-w.sem
	}
	return ok
}

// readLoop demultiplexes responses to their waiters by sequence number.
// On connection death it fails every pending waiter.
func (w *wireConn) readLoop(br *bufio.Reader) {
	for {
		seq, frame, err := readFrameSeq(br)
		if err != nil {
			w.bad.Store(true)
			w.pmu.Lock()
			pend := w.pend
			w.pend = make(map[uint32]chan wireResp)
			w.pmu.Unlock()
			w.readErr = fmt.Errorf("qindb client: connection lost: %w", err)
			close(w.done)
			for _, ch := range pend {
				ch <- wireResp{err: w.readErr}
			}
			return
		}
		status, payload, derr := decodeResponse(frame)
		w.pmu.Lock()
		ch := w.pend[seq]
		delete(w.pend, seq)
		w.pmu.Unlock()
		if ch != nil {
			ch <- wireResp{status: status, payload: payload, err: derr}
			<-w.sem // response delivered: free the in-flight slot
		}
	}
}
