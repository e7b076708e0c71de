package main

import (
	"context"
	"slices"
	"testing"
	"time"

	"directload/internal/bifrost"
)

// valueReader answers every GET with the version's stored value, or
// with a wrong one.
type valueReader struct {
	ver   *version
	wrong bool
}

func (r valueReader) get(_ context.Context, key []byte, _ uint64) ([]byte, error) {
	for _, e := range r.ver.entries {
		if string(e.Key) == string(key) {
			if r.wrong {
				return append([]byte{^e.Value[0]}, e.Value[1:]...), nil
			}
			return e.Value, nil
		}
	}
	return nil, errFake
}

// TestWrongValueFails checks that a GET answered with wrong bytes counts
// as failed and missed, and a right one as neither.
func TestWrongValueFails(t *testing.T) {
	ds, err := newDataset(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := ds.next()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, wrong := range []bool{false, true} {
		m := &measurement{}
		g := newLoadGen(ds, valueReader{ver: ver, wrong: wrong}, m, 1)
		g.start = time.Now()
		due, key, v := g.next()
		g.do(ctx, due, key, v)
		want := int64(0)
		if wrong {
			want = 1
		}
		if m.failed != want || m.misses != want || m.due != 1 {
			t.Errorf("wrong=%v: failed %d, missed %d of %d due; want %d failed and missed", wrong, m.failed, m.misses, m.due, want)
		}
	}
}

// failingWriter refuses every slice and every drop.
type failingWriter struct{ slices, drops int }

func (w *failingWriter) slice(context.Context, *bifrost.Slice) error {
	w.slices++
	return errFake
}

func (w *failingWriter) drop(context.Context, uint64) error {
	w.drops++
	return errFake
}

// TestFailedWriteFails checks that every failed slice write and version
// drop lands in the failed count.
func TestFailedWriteFails(t *testing.T) {
	ds, err := newDataset(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	w := &failingWriter{}
	p := newPublisher(ds, w, nil)
	for i := 0; i <= retained; i++ {
		ver, err := ds.next()
		if err != nil {
			t.Fatal(err)
		}
		p.publish(context.Background(), ver)
	}
	st := p.stats
	if w.slices == 0 || w.drops != 1 {
		t.Fatalf("writer saw %d slices and %d drops; want some slices and 1 drop", w.slices, w.drops)
	}
	if want := int64(w.slices + w.drops); st.failed != want || st.attempted != want {
		t.Errorf("failed %d of %d attempted; want all %d", st.failed, st.attempted, want)
	}
}

// TestLoadGenRun drives the open-loop generator against an instant
// reader: every GET it sends is counted once, with its lateness.
func TestLoadGenRun(t *testing.T) {
	ds, err := newDataset(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := ds.next()
	if err != nil {
		t.Fatal(err)
	}
	m := &measurement{}
	g := newLoadGen(ds, valueReader{ver: ver}, m, 1)
	g.start = time.Now()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.run(context.Background(), stop)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
	if m.due == 0 || m.due != int64(len(m.lag)) || m.due != int64(len(m.streams[0].d)) || m.failed != 0 {
		t.Errorf("due %d, lags %d, GETs %d, failed %d", m.due, len(m.lag), len(m.streams[0].d), m.failed)
	}
}

// keyCounts is a fake engine's live keys per version.
type keyCounts map[uint64]int

func (k keyCounts) KeyCount(v uint64) int { return k[v] }

// TestUndeliveredDropFails checks that a version dropped without an
// error but still in the engine, as after a drop queued for handoff,
// fails the final check, as does a retained version missing keys.
func TestUndeliveredDropFails(t *testing.T) {
	kept, dropped := []uint64{5, 6}, []uint64{3, 4}
	if err := checkVersions(keyCounts{5: 10, 6: 10}, kept, dropped, 10); err != nil {
		t.Errorf("clean engine: %v", err)
	}
	if err := checkVersions(keyCounts{4: 10, 5: 10, 6: 10}, kept, dropped, 10); err == nil {
		t.Error("an undelivered drop passed the check")
	}
	if err := checkVersions(keyCounts{5: 10, 6: 9}, kept, dropped, 10); err == nil {
		t.Error("a retained version missing a key passed the check")
	}
}

// TestEveryWorkloadSameMetrics checks that every workload reports the
// same end-to-end and per-layer metrics, in the same order.
func TestEveryWorkloadSameMetrics(t *testing.T) {
	mk := func(p pass) *measurement { return &measurement{pass: p} }
	var e2e, layers [][]string
	for _, wl := range []string{wlPublish, wlServe, wlUpdate} {
		e2e = append(e2e, endToEnd(wl, mk(passPlain), 1).names)
		layers = append(layers, perLayer(wl, mk(passPlain), mk(passA), mk(passB), mk(passC)).names)
	}
	for i := 1; i < len(e2e); i++ {
		if !slices.Equal(e2e[i], e2e[0]) {
			t.Errorf("end-to-end metrics differ between workloads:\n%v\n%v", e2e[0], e2e[i])
		}
		if !slices.Equal(layers[i], layers[0]) {
			t.Errorf("per-layer metrics differ between workloads:\n%v\n%v", layers[0], layers[i])
		}
	}
}
