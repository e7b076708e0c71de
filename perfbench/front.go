package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"directload/internal/bifrost"
	"directload/internal/core"
	"directload/internal/fleet"
	"directload/internal/resp"
	"directload/internal/server"
)

// pass names the layer a run enters the stack at. The plain run and
// pass A use the public front doors; B calls server.Backend and C calls
// core.DB directly, from one goroutine.
type pass int

const (
	passPlain pass = iota
	passA
	passB
	passC
)

func (p pass) String() string { return [...]string{"plain", "A", "B", "C"}[p] }

// single reports whether the pass makes every call from one goroutine.
func (p pass) single() bool { return p == passB || p == passC }

// writer ships one sealed slice or one version drop into the stack.
type writer interface {
	slice(ctx context.Context, s *bifrost.Slice) error
	drop(ctx context.Context, v uint64) error
}

// reader fetches one value from the stack.
type reader interface {
	get(ctx context.Context, key []byte, v uint64) ([]byte, error)
}

// dialFleet opens a one-node fleet: R = W = 1, prober off, one
// connection.
func dialFleet(addr string) (*fleet.Fleet, error) {
	return fleet.New(fleet.Config{
		Groups:        [][]string{{addr}},
		Replicas:      1,
		WriteQuorum:   1,
		ProbeInterval: -1,
		DialOpts:      []server.DialOption{server.WithPoolSize(1)},
	})
}

// Span names of the calls the benchmark makes into each layer.
const (
	spanFleetPublish = "fleet.publish_version"
	spanFleetDrop    = "fleet.drop_version"
	spanFleetGet     = "fleet.get"
	spanRESPGet      = "resp.get"
	spanBackendBatch = "server.backend.batch"
	spanBackendDrop  = "server.backend.drop_version"
	spanBackendGet   = "server.backend.get"
	spanCorePut      = "core.put"
	spanCoreDrop     = "core.drop_version"
	spanCoreGet      = "core.get"
	spanCoreHas      = "core.has"
	spanProcess      = "bifrost.process"
	spanVerify       = "bifrost.verify"
)

type fleetWriter struct {
	f  *fleet.Fleet
	tr *tracer
}

func (w fleetWriter) slice(ctx context.Context, s *bifrost.Slice) error {
	entries := make([]fleet.Entry, len(s.Records))
	for i, r := range s.Records {
		entries[i] = fleet.Entry{Key: r.Key, Value: r.Value, Dedup: r.Dedup}
	}
	done := w.tr.call(spanFleetPublish, false)
	err := w.f.PublishVersion(ctx, s.Version, entries)
	done(0)
	return err
}

func (w fleetWriter) drop(ctx context.Context, v uint64) error {
	done := w.tr.call(spanFleetDrop, false)
	err := w.f.DropVersion(ctx, v)
	done(0)
	return err
}

type fleetReader struct {
	f  *fleet.Fleet
	tr *tracer
}

func (r fleetReader) get(ctx context.Context, key []byte, v uint64) ([]byte, error) {
	done := r.tr.call(spanFleetGet, false)
	val, err := r.f.Get(ctx, key, v)
	done(0)
	return val, err
}

// respReader reads with RESP GET after SELECTing the version's database.
// Not safe for concurrent use.
type respReader struct {
	c   *resp.Client
	tr  *tracer
	cur uint64 // version currently SELECTed
}

func (r *respReader) get(_ context.Context, key []byte, v uint64) ([]byte, error) {
	if v != r.cur {
		rep, err := r.c.Do("SELECT", strconv.FormatUint(v-1, 10))
		if err == nil {
			err = rep.Err
		}
		if err != nil {
			return nil, fmt.Errorf("SELECT %d: %w", v-1, err)
		}
		r.cur = v
	}
	done := r.tr.call(spanRESPGet, false)
	rep, err := r.do(key)
	done(0)
	if err != nil {
		return nil, err
	}
	if rep.Err != nil {
		return nil, rep.Err
	}
	if rep.IsNil() {
		return nil, core.ErrNotFound
	}
	return rep.Bulk, nil
}

func (r *respReader) do(key []byte) (resp.Reply, error) {
	if err := r.c.Send([]byte("GET"), key); err != nil {
		return resp.Reply{}, err
	}
	if err := r.c.Flush(); err != nil {
		return resp.Reply{}, err
	}
	return r.c.Receive()
}

type backendWriter struct {
	b  *server.Backend
	tr *tracer
}

func (w backendWriter) slice(ctx context.Context, s *bifrost.Slice) error {
	ops := make([]server.BatchOp, len(s.Records))
	for i, r := range s.Records {
		op := server.OpPut
		if r.Dedup {
			op = server.OpPutDedup
		}
		ops[i] = server.BatchOp{Op: op, Version: s.Version, Key: r.Key, Value: r.Value}
	}
	done := w.tr.call(spanBackendBatch, true)
	results := w.b.Batch(ctx, ops)
	done(0)
	var errs []error
	for _, res := range results {
		if res.Err != nil {
			errs = append(errs, res.Err)
		}
	}
	return errors.Join(errs...)
}

func (w backendWriter) drop(ctx context.Context, v uint64) error {
	done := w.tr.call(spanBackendDrop, true)
	err := w.b.DropVersion(ctx, v)
	done(0)
	return err
}

type backendReader struct {
	b  *server.Backend
	tr *tracer
}

func (r backendReader) get(ctx context.Context, key []byte, v uint64) ([]byte, error) {
	done := r.tr.call(spanBackendGet, true)
	val, err := r.b.Get(ctx, key, v)
	done(0)
	return val, err
}

// coreWriter puts a slice's records one by one. poll, when set, runs
// between puts: the update workload's single-goroutine passes issue the
// GETs that have fallen due there.
type coreWriter struct {
	db   *core.DB
	tr   *tracer
	poll func()
}

func (w coreWriter) slice(_ context.Context, s *bifrost.Slice) error {
	var errs []error
	for _, r := range s.Records {
		if w.poll != nil {
			w.poll()
		}
		done := w.tr.call(spanCorePut, true)
		cost, err := w.db.Put(r.Key, s.Version, r.Value, r.Dedup)
		done(cost)
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (w coreWriter) drop(_ context.Context, v uint64) error {
	done := w.tr.call(spanCoreDrop, true)
	_, cost, err := w.db.DropVersion(v)
	done(cost)
	return err
}

// coreReader asks the memtable (DB.Has) and then reads (DB.Get), timing
// each call on its own. With a probe it also counts the flash traffic
// inside each DB.Get, which one goroutine making every call makes exact.
type coreReader struct {
	db    *core.DB
	tr    *tracer
	probe *probe
	acc   *getAcc
}

// getAcc sums what the DB.Get calls of a pass cost the device.
type getAcc struct {
	dev   devCounts
	value int64 // value bytes returned
}

func (r coreReader) get(_ context.Context, key []byte, v uint64) ([]byte, error) {
	done := r.tr.call(spanCoreHas, true)
	ok := r.db.Has(key, v)
	done(0)
	if !ok {
		return nil, core.ErrNotFound
	}
	var before devCounts
	if r.probe != nil {
		before = r.probe.dev.load()
	}
	done = r.tr.call(spanCoreGet, true)
	val, cost, err := r.db.Get(key, v)
	done(cost)
	if r.probe != nil {
		r.acc.dev = r.acc.dev.add(r.probe.dev.load().sub(before))
		r.acc.value += int64(len(val))
	}
	return val, err
}
