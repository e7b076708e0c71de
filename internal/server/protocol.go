// Package server exposes a QinDB engine over TCP with a compact binary
// protocol, plus a matching client — the network face a storage node in
// a Mint group presents inside a data center. The protocol is
// deliberately minimal (the paper's front-ends speak an internal RPC):
// length-prefixed request/response frames carrying the mutated
// GET/PUT/DEL operations of paper Fig. 2.
//
// # Framing
//
// There is one framing, spoken from a connection's first byte; there is
// no handshake. All integers are little-endian:
//
//	request:  len u32 | seq u32 | op u8 | version u64 | keyLen u16 | key | valLen u32 | value
//	response: len u32 | seq u32 | status u8 | payloadLen u32 | payload
//
// len counts everything after itself, including seq. The client may
// keep many requests in flight on one connection; the server dispatches
// them concurrently (bounded by its max-in-flight knob) and responses
// may arrive in any order — seq matches a response to its request.
// Operations pipelined concurrently may execute in any order, so
// dependent operations must wait for their predecessor's response.
//
// # Trace context
//
// A request frame whose seq has its high bit set carries a 16-byte
// trace-context field between seq and the op byte:
//
//	request: len u32 | seq u32 (bit31=1) | traceID u64 | parentSpanID u64 | op u8 | ...
//
// The client injects the active span from its context.Context; the
// server parents every span the request produces (the handler span and,
// for OpBatch, each sub-op span) under (traceID, parentSpanID), which is
// what stitches one publish's fan-out into a single cross-node trace.
// Untraced requests never set the bit and pay nothing. Response frames
// never carry trace context, and seq is echoed back without the flag
// bit, so sequence numbers are 31-bit.
//
// # OpBatch
//
// OpBatch packs N mutation sub-ops into one frame: Version holds the
// sub-op count and Value the concatenated sub-ops, each encoded exactly
// like a request body (op u8 | version u64 | keyLen u16 | key |
// valLen u32 | value). Only OpPut, OpPutDedup, OpDel and OpDropVersion
// may appear as sub-ops. The server applies the batch in one pass and
// answers StatusOK with one status per sub-op:
//
//	payload: count u32, then per sub-op: status u8 | msgLen u16 | msg
//
// msg is empty for StatusOK entries. A failing sub-op does not poison
// the frame: the remaining sub-ops are still applied and reported
// individually.
//
// # OpRange
//
// The request reuses the generic fields: Key = inclusive lower bound,
// Value = exclusive upper bound, Version = limit. A limit <= 0 means
// "server default" (the server's range cap, 4096 unless configured);
// a positive limit is clamped to that cap. The reply payload leads
// with the applied limit:
//
//	payload: appliedLimit u32 | entries
//
// where entries are keyLen u16 | key | version u64 triples.
//
// For OpStats the payload is a JSON-encoded StatsReply. For OpMetrics
// the payload is the JSON encoding of the server's metrics registry
// snapshot ({} when the server runs uninstrumented). Opcode 11 is
// retired and answered with "unknown op".
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"directload/internal/aof"
	"directload/internal/metrics"
)

// Protocol ops.
const (
	OpPut uint8 = iota + 1
	OpPutDedup
	OpGet
	OpDel
	OpDropVersion
	OpHas
	OpStats
	OpRange
	OpPing
	OpMetrics
	_       // 11: retired, answered with "unknown op"
	OpBatch // N packed mutation sub-ops in one frame
)

// opMax is the highest assigned opcode (bounds the per-opcode arrays).
const opMax = OpBatch

// seqTraceFlag marks a request frame that carries a trace-context
// field. Responses never set it; the server masks it off before echo.
const seqTraceFlag uint32 = 1 << 31

// traceHeaderLen is the size of the trace-context field: traceID u64 |
// parentSpanID u64.
const traceHeaderLen = 16

// opNames labels ops for per-opcode metric names; retired opcodes have
// no name.
var opNames = [opMax + 1]string{
	OpPut: "put", OpPutDedup: "putd", OpGet: "get", OpDel: "del",
	OpDropVersion: "drop", OpHas: "has", OpStats: "stats",
	OpRange: "range", OpPing: "ping", OpMetrics: "metrics",
	OpBatch: "batch",
}

// Response statuses. (StatusFailed was once named StatusError; the
// name now belongs to the error type carrying these codes to callers.)
const (
	StatusOK uint8 = iota
	StatusNotFound
	StatusDeleted
	StatusFailed
)

// Protocol limits: a request may carry one key (at most aof.MaxKeyLen
// bytes, the width the store can record) and one value (a batch frame
// may carry many sub-ops up to the frame cap).
const (
	MaxValueLen = 64 << 20
	maxFrame    = MaxValueLen + aof.MaxKeyLen + 64
)

// Protocol errors.
var (
	ErrFrameTooBig = errors.New("server: frame exceeds protocol limit")
	ErrBadFrame    = errors.New("server: malformed frame")
)

// request is one decoded client request.
type request struct {
	Op      uint8
	Version uint64
	Key     []byte
	Value   []byte
}

// writeFrameSeq writes one frame: len u32 | seq u32 | body.
func writeFrameSeq(w io.Writer, seq uint32, body []byte) error {
	if len(body)+4 > maxFrame {
		return ErrFrameTooBig
	}
	buf := appendFrameSeq(nil, seq, body)
	_, err := w.Write(buf) // one write: a frame never splits into two syscalls
	return err
}

// appendFrameSeq appends one encoded frame to buf, letting callers
// coalesce several frames into a single write.
func appendFrameSeq(buf []byte, seq uint32, body []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)+4))
	buf = binary.LittleEndian.AppendUint32(buf, seq)
	return append(buf, body...)
}

// appendFrameSeqTrace appends one request frame carrying a
// trace-context field; seq must already have seqTraceFlag set.
func appendFrameSeqTrace(buf []byte, seq uint32, sc metrics.SpanContext, body []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)+4+traceHeaderLen))
	buf = binary.LittleEndian.AppendUint32(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, sc.TraceID)
	buf = binary.LittleEndian.AppendUint64(buf, sc.SpanID)
	return append(buf, body...)
}

// splitTraceHeader strips the trace-context field off a flagged request
// body, returning the remote span context and the request body proper.
func splitTraceHeader(body []byte) (metrics.SpanContext, []byte, error) {
	if len(body) < traceHeaderLen {
		return metrics.SpanContext{}, nil, fmt.Errorf("%w: short trace header", ErrBadFrame)
	}
	sc := metrics.SpanContext{
		TraceID: binary.LittleEndian.Uint64(body),
		SpanID:  binary.LittleEndian.Uint64(body[8:]),
	}
	return sc, body[traceHeaderLen:], nil
}

// readFrameSeq reads one frame, returning its sequence number and body.
func readFrameSeq(r io.Reader) (uint32, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 4 {
		return 0, nil, fmt.Errorf("%w: frame shorter than its seq", ErrBadFrame)
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, nil, err
	}
	seq := binary.LittleEndian.Uint32(hdr[4:])
	buf := make([]byte, n-4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return seq, buf, nil
}

// encodeRequest serializes a request body (without the frame header).
func encodeRequest(req request) ([]byte, error) {
	if len(req.Key) > aof.MaxKeyLen {
		return nil, fmt.Errorf("%w: key %d bytes", ErrFrameTooBig, len(req.Key))
	}
	if len(req.Value) > MaxValueLen {
		return nil, fmt.Errorf("%w: value %d bytes", ErrFrameTooBig, len(req.Value))
	}
	buf := make([]byte, 0, 1+8+2+len(req.Key)+4+len(req.Value))
	return appendRequest(buf, req), nil
}

// appendRequest appends a request body encoding to buf.
func appendRequest(buf []byte, req request) []byte {
	buf = append(buf, req.Op)
	buf = binary.LittleEndian.AppendUint64(buf, req.Version)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Key)))
	buf = append(buf, req.Key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Value)))
	buf = append(buf, req.Value...)
	return buf
}

// decodeRequestAt parses one request body starting at offset p,
// returning the request and the offset just past it.
func decodeRequestAt(buf []byte, p int) (request, int, error) {
	var req request
	if len(buf) < p+1+8+2 {
		return req, p, fmt.Errorf("%w: short header", ErrBadFrame)
	}
	req.Op = buf[p]
	req.Version = binary.LittleEndian.Uint64(buf[p+1:])
	klen := int(binary.LittleEndian.Uint16(buf[p+9:]))
	p += 11
	if len(buf) < p+klen+4 {
		return req, p, fmt.Errorf("%w: short key", ErrBadFrame)
	}
	req.Key = buf[p : p+klen]
	p += klen
	vlen := int(binary.LittleEndian.Uint32(buf[p:]))
	p += 4
	if len(buf) < p+vlen {
		return req, p, fmt.Errorf("%w: short value", ErrBadFrame)
	}
	if vlen > 0 {
		req.Value = buf[p : p+vlen]
	}
	return req, p + vlen, nil
}

// decodeRequest parses a request body.
func decodeRequest(buf []byte) (request, error) {
	req, _, err := decodeRequestAt(buf, 0)
	return req, err
}

// encodeResponse serializes a response body.
func encodeResponse(status uint8, payload []byte) []byte {
	buf := make([]byte, 0, 1+4+len(payload))
	buf = append(buf, status)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return buf
}

// decodeResponse parses a response body.
func decodeResponse(buf []byte) (status uint8, payload []byte, err error) {
	if len(buf) < 5 {
		return 0, nil, fmt.Errorf("%w: short response", ErrBadFrame)
	}
	status = buf[0]
	n := int(binary.LittleEndian.Uint32(buf[1:]))
	if len(buf) < 5+n {
		return 0, nil, fmt.Errorf("%w: short payload", ErrBadFrame)
	}
	return status, buf[5 : 5+n], nil
}

// RangeEntry is one (key, version) hit returned by OpRange.
type RangeEntry struct {
	Key     []byte
	Version uint64
}

// encodeRangeReply packs a range reply: the applied limit, then one
// keyLen u16 | key | version u64 triple per entry.
func encodeRangeReply(applied int, entries []RangeEntry) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(applied))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, e.Version)
	}
	return buf
}

// decodeRangeReply unpacks a range reply.
func decodeRangeReply(buf []byte) ([]RangeEntry, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: short range reply", ErrBadFrame)
	}
	applied := int(binary.LittleEndian.Uint32(buf))
	var out []RangeEntry
	for p := 4; p < len(buf); {
		if p+2 > len(buf) {
			return nil, 0, ErrBadFrame
		}
		klen := int(binary.LittleEndian.Uint16(buf[p:]))
		p += 2
		if p+klen+8 > len(buf) {
			return nil, 0, ErrBadFrame
		}
		e := RangeEntry{Key: append([]byte(nil), buf[p:p+klen]...)}
		p += klen
		e.Version = binary.LittleEndian.Uint64(buf[p:])
		p += 8
		out = append(out, e)
	}
	return out, applied, nil
}

// BatchOp is one sub-op of an OpBatch frame. Only mutations may be
// batched: OpPut, OpPutDedup, OpDel and OpDropVersion.
type BatchOp struct {
	Op      uint8
	Version uint64
	Key     []byte
	Value   []byte
}

// batchable reports whether op may appear inside an OpBatch frame.
func batchable(op uint8) bool {
	switch op {
	case OpPut, OpPutDedup, OpDel, OpDropVersion:
		return true
	}
	return false
}

// encodeBatch packs sub-ops into an OpBatch request body.
func encodeBatch(ops []BatchOp) ([]byte, error) {
	size := 0
	for _, op := range ops {
		if !batchable(op.Op) {
			return nil, fmt.Errorf("%w: op %d not batchable", ErrBadFrame, op.Op)
		}
		if len(op.Key) > aof.MaxKeyLen {
			return nil, fmt.Errorf("%w: key %d bytes", ErrFrameTooBig, len(op.Key))
		}
		if len(op.Value) > MaxValueLen {
			return nil, fmt.Errorf("%w: value %d bytes", ErrFrameTooBig, len(op.Value))
		}
		size += 1 + 8 + 2 + len(op.Key) + 4 + len(op.Value)
	}
	buf := make([]byte, 0, size)
	for _, op := range ops {
		buf = appendRequest(buf, request{Op: op.Op, Version: op.Version, Key: op.Key, Value: op.Value})
	}
	if len(buf) > MaxValueLen {
		return nil, fmt.Errorf("%w: batch %d bytes", ErrFrameTooBig, len(buf))
	}
	return buf, nil
}

// decodeBatch unpacks the sub-ops of an OpBatch request body, verifying
// the declared count.
func decodeBatch(buf []byte, count int) ([]request, error) {
	if count < 0 || count > len(buf) {
		return nil, fmt.Errorf("%w: batch count %d", ErrBadFrame, count)
	}
	out := make([]request, 0, count)
	for p := 0; p < len(buf); {
		req, np, err := decodeRequestAt(buf, p)
		if err != nil {
			return nil, err
		}
		out = append(out, req)
		p = np
	}
	if len(out) != count {
		return nil, fmt.Errorf("%w: batch declared %d sub-ops, carried %d", ErrBadFrame, count, len(out))
	}
	return out, nil
}

// subStatus is one sub-op outcome in a batch reply.
type subStatus struct {
	status uint8
	msg    []byte
}

// encodeBatchReply packs per-sub-op statuses.
func encodeBatchReply(statuses []subStatus) []byte {
	size := 4
	for _, s := range statuses {
		size += 1 + 2 + len(s.msg)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(statuses)))
	for _, s := range statuses {
		buf = append(buf, s.status)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.msg)))
		buf = append(buf, s.msg...)
	}
	return buf
}

// decodeBatchReply unpacks per-sub-op statuses, bounding the declared
// count by what the body can carry (3 bytes per status) before
// allocating for it.
func decodeBatchReply(buf []byte) ([]subStatus, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: short batch reply", ErrBadFrame)
	}
	count := int(binary.LittleEndian.Uint32(buf))
	if count > (len(buf)-4)/3 {
		return nil, fmt.Errorf("%w: batch reply count %d", ErrBadFrame, count)
	}
	out := make([]subStatus, 0, count)
	for p := 4; p < len(buf); {
		if p+3 > len(buf) {
			return nil, ErrBadFrame
		}
		st := buf[p]
		mlen := int(binary.LittleEndian.Uint16(buf[p+1:]))
		p += 3
		if p+mlen > len(buf) {
			return nil, ErrBadFrame
		}
		var msg []byte
		if mlen > 0 {
			msg = append([]byte(nil), buf[p:p+mlen]...)
		}
		p += mlen
		out = append(out, subStatus{status: st, msg: msg})
	}
	if len(out) != count {
		return nil, fmt.Errorf("%w: batch reply declared %d, carried %d", ErrBadFrame, count, len(out))
	}
	return out, nil
}
