package server

import (
	"bytes"
	"encoding/binary"
	"testing"

	"directload/internal/metrics"
)

// fuzzFrameCap rejects inputs whose declared frame length exceeds what
// any fuzz input can actually carry, so the fuzzer's budget is not
// spent allocating maxFrame-sized buffers that io.ReadFull immediately
// fails to fill.
const fuzzFrameCap = 1 << 20

// FuzzRequest drives arbitrary bytes through the request body parser
// and re-encodes whatever it accepts.
func FuzzRequest(f *testing.F) {
	for _, req := range []request{
		{Op: OpGet, Version: 3, Key: []byte("key")},
		{Op: OpPut, Version: 1, Key: []byte("k"), Value: []byte("some value")},
		{Op: OpPing},
	} {
		seed, err := encodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		enc, err := encodeRequest(req)
		if err != nil {
			t.Fatalf("re-encoding a decoded request failed: %v", err)
		}
		back, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if back.Op != req.Op || back.Version != req.Version ||
			!bytes.Equal(back.Key, req.Key) || !bytes.Equal(back.Value, req.Value) {
			t.Fatalf("round-trip request mismatch: %+v vs %+v", back, req)
		}
	})
}

// FuzzFrameV2 parses arbitrary bytes the way the server read loop does:
// seq-framed, optionally trace-tagged, optionally a batch of packed
// sub-ops.
func FuzzFrameV2(f *testing.F) {
	plain, err := encodeRequest(request{Op: OpPut, Version: 5, Key: []byte("k"), Value: []byte("v")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendFrameSeq(nil, 1, plain))

	packed, err := encodeBatch([]BatchOp{
		{Op: OpPut, Version: 2, Key: []byte("a"), Value: []byte("x")},
		{Op: OpDel, Version: 2, Key: []byte("b")},
	})
	if err != nil {
		f.Fatal(err)
	}
	batch, err := encodeRequest(request{Op: OpBatch, Version: 2, Value: packed})
	if err != nil {
		f.Fatal(err)
	}
	sc := metrics.SpanContext{TraceID: 9, SpanID: 8}
	f.Add(appendFrameSeqTrace(nil, 3|seqTraceFlag, sc, batch))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 && binary.LittleEndian.Uint32(data) > fuzzFrameCap {
			return
		}
		seq, body, err := readFrameSeq(bytes.NewReader(data))
		if err != nil {
			return
		}
		if seq&seqTraceFlag != 0 {
			if _, rest, err := splitTraceHeader(body); err == nil {
				body = rest
			} else {
				return
			}
		}
		req, err := decodeRequest(body)
		if err != nil {
			return
		}
		if req.Op == OpBatch {
			subs, err := decodeBatch(req.Value, int(req.Version))
			if err != nil {
				return
			}
			for _, sub := range subs {
				enc, err := encodeRequest(sub)
				if err != nil {
					t.Fatalf("re-encoding decoded sub-op failed: %v", err)
				}
				back, err := decodeRequest(enc)
				if err != nil {
					t.Fatalf("sub-op round trip failed: %v", err)
				}
				if back.Op != sub.Op || !bytes.Equal(back.Key, sub.Key) {
					t.Fatalf("sub-op round-trip mismatch")
				}
			}
		}
		enc, err := encodeRequest(req)
		if err != nil {
			t.Fatalf("re-encoding a decoded request failed: %v", err)
		}
		if _, err := decodeRequest(enc); err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
	})
}

// FuzzBatchReply drives arbitrary bytes through the batch-reply decoder
// the client runs on every OpBatch response. A declared count the body
// cannot carry must be refused before anything is allocated for it.
func FuzzBatchReply(f *testing.F) {
	f.Add(encodeBatchReply([]subStatus{
		{status: StatusOK},
		{status: StatusNotFound, msg: []byte("missing")},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		statuses, err := decodeBatchReply(data)
		if err != nil {
			return
		}
		back, err := decodeBatchReply(encodeBatchReply(statuses))
		if err != nil || len(back) != len(statuses) {
			t.Fatalf("round trip = %d statuses, %v; want %d", len(back), err, len(statuses))
		}
		for i := range back {
			if back[i].status != statuses[i].status || !bytes.Equal(back[i].msg, statuses[i].msg) {
				t.Fatalf("status %d round-trip mismatch", i)
			}
		}
	})
}
