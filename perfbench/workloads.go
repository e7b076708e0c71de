package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"directload/internal/workload"
)

// Workload parameters.
const (
	zipfSkew       = 1.1                  // serve's key popularity
	updateRate     = 500                  // update's open-loop GETs per second
	missLimit      = 5 * time.Millisecond // a GET slower than this from its due time is a miss
	maxOutstanding = 256                  // open-loop GETs in flight before the generator waits
)

// plan fixes the inputs of a run so that the passes of a traced run
// replay exactly the same operations.
type plan struct {
	versions int           // publish, update: versions published in the window
	window   time.Duration // serve: how long to read when reads is unset; publish, update: the read-back's
	reads    [2]int        // serve: GETs per client
}

// measurement is what one pass of one workload observed.
type measurement struct {
	tally
	pass  pass
	setup time.Duration
	span  [2]time.Time // when the workload began and ended, set-up excluded

	pub        publishStats
	programmed int64         // flash bytes the publish work in pub programmed
	c0, c1     counters      // counters at the start and end of the timed work
	timed      time.Duration // wall time of the timed windows
	allocs     uint64        // Go heap bytes allocated in the timed windows
	ops        int64         // entries published plus GETs
	liveKV     int64         // bytes the retained versions need stored
	flash      int64         // flash bytes occupied at the end
	heap       uint64        // live heap after a forced GC at the end
	memtab     int64         // memtable bytes at the end
	spans      []span
	gets       getAcc          // device traffic inside core.get calls (pass C)
	streams    [2]samples      // GET latencies: native (fleet.Get) and RESP clients
	lag        []time.Duration // open-loop send lateness
	due        int64           // open-loop GETs due
	misses     int64           // open-loop GETs that failed, were wrong or late

	// back is publish's and update's read-back: serve's closed loop over
	// both front doors, untraced, after the window, which gives these
	// workloads their GET throughput and RESP latencies (and publish its
	// fleet.Get latencies). Nil in passes B and C.
	back *measurement
}

// readGen draws serve's Zipf-popular keys for one client.
func readGen(seed int64, client int) (*workload.ReadGen, error) {
	return workload.NewReadGen(keyCount, zipfSkew, seed*10+int64(client)+1)
}

// runPublish publishes pl.versions versions over one connection with no
// reads.
func runPublish(ctx context.Context, s *session, pl plan, seed int64) (*measurement, error) {
	m := &measurement{pass: s.pass, setup: s.setup}
	m.c0 = s.snapshot()
	for i := 0; i < pl.versions; i++ {
		ver, err := s.ds.next()
		if err != nil {
			m.fail(err)
			break
		}
		s.timed(m, func() { s.pub.publish(ctx, ver) })
		m.ops += int64(len(ver.entries))
	}
	m.c1 = s.snapshot()
	s.finishPublish(m)
	return m, s.readBack(ctx, m, pl, seed)
}

// timed runs fn as part of the run's timed work: spans are recorded and
// heap allocations counted only here.
func (s *session) timed(m *measurement, fn func()) {
	if s.tr != nil {
		s.tr.on.Store(true)
	}
	t0, a0 := time.Now(), heapAllocated()
	fn()
	m.allocs += heapAllocated() - a0
	m.timed += time.Since(t0)
	if s.tr != nil {
		s.tr.on.Store(false)
	}
}

// finishPublish collects the publish loop's results and checks the
// node's versions.
func (s *session) finishPublish(m *measurement) {
	m.pub = s.pub.stats
	m.merge(m.pub.tally)
	m.programmed = m.c1.dev.SysWriteBytes - m.c0.dev.SysWriteBytes
	s.finish(m, m.pub.dropped)
}

// finish checks that each retained version holds the whole keyspace and
// each version dropped in the window holds none of it, and measures the
// space the retained versions take.
func (s *session) finish(m *measurement, dropped []uint64) {
	newest := s.newest()
	var kept []uint64
	for v := newest - retained + 1; v <= newest; v++ {
		kept = append(kept, v)
	}
	m.attempted++
	if err := checkVersions(s.n.db, kept, dropped, keyCount); err != nil {
		m.fail(err)
	}
	m.liveKV = s.ds.liveBytes(kept)
	cfg := s.n.dev.Config()
	m.flash = int64(cfg.Blocks-m.c1.dev.FreeBlocks) * int64(cfg.BlockSize())
}

// readBack runs serve's closed loop for pl.window after a publish or
// update window, outside it: no spans are recorded and its allocations
// are not counted in the window's. Passes B and C skip it.
func (s *session) readBack(ctx context.Context, m *measurement, pl plan, seed int64) error {
	if s.pass.single() {
		return nil
	}
	rs, err := s.readers()
	if err != nil {
		return err
	}
	runtime.GC() // the window's garbage, as before a window
	b := &measurement{pass: s.pass}
	t0 := time.Now()
	if err := s.readLoop(ctx, b, rs, plan{window: pl.window}, seed); err != nil {
		return err
	}
	b.timed = time.Since(t0)
	m.merge(b.tally)
	m.back = b
	return nil
}

// nativeReader is the first client's entry point for the pass: fleet.Get
// over its own connection, or the layer the pass enters at.
func (s *session) nativeReader() (reader, error) {
	switch s.pass {
	case passB:
		return backendReader{b: s.n.backend, tr: s.tr}, nil
	case passC:
		return coreReader{db: s.n.db, tr: s.tr, probe: s.probe, acc: &s.gets}, nil
	}
	f, err := s.fleet()
	if err != nil {
		return nil, err
	}
	return fleetReader{f: f, tr: s.tr}, nil
}

// respReader is the second client's: RESP GET over its own connection,
// or the same layer entry as the first client in passes B and C.
func (s *session) respReader() (reader, error) {
	if s.pass.single() {
		return s.nativeReader()
	}
	c, err := s.respClient()
	if err != nil {
		return nil, err
	}
	return &respReader{c: c, tr: s.tr}, nil
}

// runServe reads the newest version in a closed loop over two clients,
// with no writes: for pl.window, or pl.reads GETs per client when set.
// Its publish metrics are those of the set-up's initial load.
func runServe(ctx context.Context, s *session, pl plan, seed int64) (*measurement, error) {
	m := &measurement{pass: s.pass, setup: s.setup}
	rs, err := s.readers()
	if err != nil {
		return nil, err
	}
	m.c0 = s.snapshot()
	s.timed(m, func() { err = s.readLoop(ctx, m, rs, pl, seed) })
	if err != nil {
		return nil, err
	}
	m.c1 = s.snapshot()
	for _, st := range m.streams {
		m.ops += int64(len(st.d))
	}
	m.pub, m.programmed = s.load, s.loadProgrammed
	s.finish(m, nil)
	return m, nil
}

// readers opens the two read clients of the pass.
func (s *session) readers() ([2]reader, error) {
	var rs [2]reader
	var err error
	if rs[0], err = s.nativeReader(); err != nil {
		return rs, err
	}
	rs[1], err = s.respReader()
	return rs, err
}

// readLoop reads the newest version in a closed loop over the two
// clients rs into m: for pl.window, or pl.reads GETs per client when set.
func (s *session) readLoop(ctx context.Context, m *measurement, rs [2]reader, pl plan, seed int64) error {
	var gens [2]*workload.ReadGen
	for c := range gens {
		var err error
		if gens[c], err = readGen(seed, c); err != nil {
			return err
		}
	}
	v := s.newest()
	fixed := pl.reads[0] > 0
	// Sub-windows of one second; a fixed-count replay may run over.
	windows := max(1, int(pl.window/time.Second))
	var start time.Time
	read := func(c int) error {
		i := gens[c].Next()
		t0 := time.Now()
		val, err := rs[c].get(ctx, s.ds.keys[i], v)
		end := time.Now()
		m.streams[c].add(end.Sub(t0), min(int(end.Sub(start)/time.Second), windows-1), end)
		if err == nil {
			err = s.ds.check(v, i, val)
		}
		return err
	}
	start = time.Now()
	if s.pass.single() {
		// One goroutine alternates between the two clients' streams.
		for len(m.streams[0].d) < pl.reads[0] || len(m.streams[1].d) < pl.reads[1] {
			for c := 0; c < 2; c++ {
				if len(m.streams[c].d) < pl.reads[c] {
					if err := read(c); err != nil {
						m.fail(err)
					}
				}
			}
		}
	} else {
		deadline := time.Now().Add(pl.window)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					if fixed && len(m.streams[c].d) >= pl.reads[c] || !fixed && time.Now().After(deadline) {
						return
					}
					if err := read(c); err != nil {
						mu.Lock()
						m.fail(err)
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
	}
	for _, st := range m.streams {
		m.attempted += int64(len(st.d))
	}
	return nil
}

// loadGen issues update's open-loop GETs: one every 1/updateRate, keys
// uniform over the serving version, each timed from its due time.
type loadGen struct {
	ds      *dataset
	r       reader
	m       *measurement
	rng     *rand.Rand
	serving atomic.Uint64
	period  time.Duration

	mu    sync.Mutex // guards m's GET results across GET goroutines
	start time.Time  // current window's first due time
	k     int        // GETs due so far in the window
	win   int        // current window: the version being published
}

func newLoadGen(ds *dataset, r reader, m *measurement, seed int64) *loadGen {
	g := &loadGen{ds: ds, r: r, m: m, rng: rand.New(rand.NewSource(seed*10 + 7)), period: time.Second / updateRate}
	g.serving.Store(ds.gen.Version())
	return g
}

// next draws the next GET and its due time.
func (g *loadGen) next() (due time.Time, key int, v uint64) {
	due = g.start.Add(time.Duration(g.k) * g.period)
	g.k++
	return due, g.rng.Intn(len(g.ds.keys)), g.serving.Load()
}

// do issues one GET and records its outcome, timed from due.
func (g *loadGen) do(ctx context.Context, due time.Time, key int, v uint64) {
	val, err := g.r.get(ctx, g.ds.keys[key], v)
	end := time.Now()
	lat := end.Sub(due)
	if err == nil {
		err = g.ds.check(v, key, val)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.m.streams[0].add(lat, g.win, end)
	g.m.due++
	if err != nil {
		g.m.fail(err)
	}
	if err != nil || lat > missLimit {
		g.m.misses++
	}
}

// poll runs, on the caller's goroutine, every GET that has fallen due
// (the single-goroutine passes).
func (g *loadGen) poll(ctx context.Context) {
	for {
		due := g.start.Add(time.Duration(g.k) * g.period)
		if due.After(time.Now()) {
			return
		}
		due, key, v := g.next()
		g.do(ctx, due, key, v)
	}
}

// run sends GETs on schedule from its own goroutine, each on a
// goroutine of its own so that a stalled GET delays no other. Once stop
// closes it still sends the GETs that fell due before, then waits for
// every GET to finish.
func (g *loadGen) run(ctx context.Context, stop <-chan struct{}) {
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	defer wg.Wait()
	var end time.Time
	for {
		due := g.start.Add(time.Duration(g.k) * g.period)
		if end.IsZero() {
			wait := time.Until(due)
			if wait < 0 {
				wait = 0
			}
			select {
			case <-stop:
				end = time.Now()
			case <-time.After(wait):
			}
		}
		if !end.IsZero() && !due.Before(end) {
			return
		}
		due, key, v := g.next()
		sem <- struct{}{}
		g.mu.Lock()
		g.m.lag = append(g.m.lag, time.Since(due))
		g.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			g.do(ctx, due, key, v)
		}()
	}
}

// runUpdate publishes pl.versions versions over one connection while a
// second connection reads the serving version open loop. The serving
// version moves once a version has fully landed; then the version four
// back is dropped.
func runUpdate(ctx context.Context, s *session, pl plan, seed int64) (*measurement, error) {
	m := &measurement{pass: s.pass, setup: s.setup}
	r, err := s.nativeReader()
	if err != nil {
		return nil, err
	}
	g := newLoadGen(s.ds, r, m, seed)
	s.pub.onLanded = func(v uint64) { g.serving.Store(v) }
	if s.pass.single() {
		s.pub.poll = func() { g.poll(ctx) }
		if cw, ok := s.pub.w.(coreWriter); ok {
			cw.poll = s.pub.poll
			s.pub.w = cw
		}
	}
	m.c0 = s.snapshot()
	for i := 0; i < pl.versions; i++ {
		ver, err := s.ds.next()
		if err != nil {
			m.fail(err)
			break
		}
		s.timed(m, func() {
			g.start, g.k, g.win = time.Now(), 0, i
			if s.pass.single() {
				s.pub.publish(ctx, ver)
				g.poll(ctx)
				return
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				g.run(ctx, stop)
			}()
			s.pub.publish(ctx, ver)
			close(stop)
			<-done
		})
		m.ops += int64(len(ver.entries))
	}
	m.c1 = s.snapshot()
	m.attempted += m.due
	m.ops += m.due
	s.finishPublish(m)
	return m, s.readBack(ctx, m, pl, seed)
}
