package main

import (
	"context"
	"fmt"
	"time"

	"directload/internal/bifrost"
)

// publisher runs the publish loop of one pass: for each version,
// bifrost dedup, slice packing and verification, one write per slice,
// then the drop of the version that falls out of retention.
type publisher struct {
	ds *dataset
	dd *bifrost.Deduper
	w  writer
	tr *tracer

	// onLanded, when set, runs after a version has fully landed and
	// before the oldest one is dropped.
	onLanded func(v uint64)
	// poll, when set, runs before each slice write and after each drop:
	// the update workload's single-goroutine passes issue the GETs that
	// have fallen due there.
	poll func()

	stats publishStats
}

// publishStats accumulates the timed publish work of a window.
type publishStats struct {
	tally
	versions   int
	logical    int64 // key+value bytes of every entry
	valueBytes int64 // value bytes of every entry
	stripped   int64 // value bytes bifrost removed
	dedupKeys  int64
	sent       int64          // key+value bytes sent to the node
	rates      []float64      // logical MB/s of each version
	spans      [][2]time.Time // when each version's publish began and ended
	slices     samples        // one per slice write, windowed by version
	dropped    []uint64       // versions dropped without an error
}

// tally counts operations attempted and failed, keeping the first
// few errors for the report.
type tally struct {
	attempted, failed int64
	errs              []error
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err)
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

func newPublisher(ds *dataset, w writer, tr *tracer) *publisher {
	return &publisher{ds: ds, dd: bifrost.NewDeduper(), w: w, tr: tr}
}

// publish sends one generated version and retires the version that
// falls out of retention. Failures are counted, not returned: the loop
// goes on so the run still reports what it measured.
func (p *publisher) publish(ctx context.Context, ver *version) {
	st := &p.stats
	start := time.Now()
	b := bifrost.NewSliceBuilder(ver.v, bifrost.StreamSummary, sliceLimit)
	for _, e := range ver.entries {
		done := p.tr.call(spanProcess, false)
		dup := p.dd.Process(e.Key, e.Value)
		done(0)
		r := bifrost.Record{Key: e.Key, Version: ver.v, Value: e.Value, Dedup: dup}
		if dup {
			st.dedupKeys++
			st.stripped += int64(len(e.Value))
			r.Value = nil
		}
		st.sent += int64(len(r.Key) + len(r.Value))
		st.valueBytes += int64(len(e.Value))
		b.Add(r)
	}
	p.dd.AdvanceVersion()
	for _, s := range b.Finish() {
		st.attempted++
		done := p.tr.call(spanVerify, false)
		ok := s.Verify()
		done(0)
		if !ok {
			st.fail(fmt.Errorf("v%d slice %d failed verification", ver.v, s.Seq))
			continue
		}
		if p.poll != nil {
			p.poll()
		}
		t0 := time.Now()
		if err := p.w.slice(ctx, s); err != nil {
			st.fail(fmt.Errorf("v%d slice %d: %w", ver.v, s.Seq, err))
		}
		end := time.Now()
		st.slices.add(end.Sub(t0), st.versions, end)
	}
	if p.onLanded != nil {
		p.onLanded(ver.v)
	}
	if ver.v > retained {
		st.attempted++
		if err := p.w.drop(ctx, ver.v-retained); err != nil {
			st.fail(fmt.Errorf("drop v%d: %w", ver.v-retained, err))
		} else {
			st.dropped = append(st.dropped, ver.v-retained)
		}
		p.ds.forget(ver.v - retained)
		if p.poll != nil {
			p.poll()
		}
	}
	end := time.Now()
	st.rates = append(st.rates, float64(ver.logical)/1e6/end.Sub(start).Seconds())
	st.spans = append(st.spans, [2]time.Time{start, end})
	st.versions++
	st.logical += ver.logical
}
