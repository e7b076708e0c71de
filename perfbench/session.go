package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"directload/internal/core"
	"directload/internal/fleet"
	"directload/internal/resp"
	"directload/internal/ssd"
)

// session is one node plus the clients of one pass, set up with the
// initial four-version load.
type session struct {
	pass  pass
	n     *node
	ds    *dataset
	tr    *tracer // nil in the plain run
	probe *probe  // nil in the plain run
	pub   *publisher
	setup time.Duration
	gets  getAcc // pass C: what DB.Get calls cost the device

	// load is the publish work of the initial load, and loadProgrammed
	// the flash bytes it programmed: serve, which publishes nothing
	// after set-up, reports its publish metrics over them.
	load           publishStats
	loadProgrammed int64

	closers []func() error
}

// openSession starts a node, connects the pass's publish client and
// loads the initial versions through the publish loop. setup covers the
// node start and the publish loop; the versions were generated before.
func openSession(ctx context.Context, p pass, ds *dataset, initial []*version) (*session, error) {
	s := &session{pass: p, ds: ds}
	if p != passPlain {
		s.tr = newTracer()
		s.probe = newProbe(s.tr)
	}
	t0 := time.Now()
	n, err := startNode(s.probe)
	if err != nil {
		return nil, err
	}
	s.setup = time.Since(t0)
	s.n = n
	s.closers = append(s.closers, n.close)
	var w writer
	switch p {
	case passPlain, passA:
		f, err := s.fleet()
		if err != nil {
			s.close()
			return nil, err
		}
		w = fleetWriter{f: f, tr: s.tr}
	case passB:
		w = backendWriter{b: n.backend, tr: s.tr}
	case passC:
		w = coreWriter{db: n.db, tr: s.tr}
	}
	s.pub = newPublisher(s.ds, w, s.tr)
	programmed := n.dev.Stats().SysWriteBytes
	for _, ver := range initial {
		t := time.Now()
		s.pub.publish(ctx, ver)
		s.setup += time.Since(t)
	}
	if st := s.pub.stats; st.failed > 0 {
		s.close()
		return nil, fmt.Errorf("initial load: %d of %d operations failed: %w",
			st.failed, st.attempted, errors.Join(st.errs...))
	}
	s.load, s.pub.stats = s.pub.stats, publishStats{}
	s.loadProgrammed = n.dev.Stats().SysWriteBytes - programmed
	return s, nil
}

// fleet opens a one-node fleet client on its own connection.
func (s *session) fleet() (*fleet.Fleet, error) {
	f, err := dialFleet(s.n.nativeAddr)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, f.Close)
	return f, nil
}

// respClient opens a RESP connection.
func (s *session) respClient() (*resp.Client, error) {
	c, err := resp.Dial(s.n.respAddr)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, c.Close)
	return c, nil
}

// newest is the newest version the node holds.
func (s *session) newest() uint64 { return s.ds.gen.Version() }

// close tears clients down before the node.
func (s *session) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// counters is a snapshot of every counter a window reports a delta of.
type counters struct {
	dev     ssd.Stats
	db      core.Stats
	probe   devCounts
	gcs     uint32
	pauseNs [256]uint64
}

// heapAllocated is the Go heap bytes allocated so far; reading it does
// not stop the world.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (s *session) snapshot() counters {
	c := counters{dev: s.n.dev.Stats(), db: s.n.db.Stats()}
	if s.probe != nil {
		c.probe = s.probe.dev.load()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.gcs = mem.NumGC
	c.pauseNs = mem.PauseNs
	return c
}

// gcPauseMax is the longest GC pause between two snapshots, as far as
// the runtime's ring of the last 256 pauses reaches back.
func gcPauseMax(a, b counters) time.Duration {
	var longest uint64
	for i := a.gcs + 1; i <= b.gcs && b.gcs-i < 256; i++ {
		longest = max(longest, b.pauseNs[(i+255)%256])
	}
	return time.Duration(longest)
}
