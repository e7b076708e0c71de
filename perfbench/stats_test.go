package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSelfTimes turns synthetic spans, with overlapping and
// out-of-bounds children, into self times.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "core.get", Start: 0, End: 100},                    // 1
		{Name: "blockfs.open", Start: 10, End: 30, Parent: 1},     // 2
		{Name: "blockfs.read_at", Start: 20, End: 50, Parent: 1},  // 3: overlaps 2
		{Name: "blockfs.read_at", Start: 90, End: 120, Parent: 1}, // 4: runs past its parent
		{Name: "core.put", Start: 200, End: 260},                  // 5: no children
		{Name: "blockfs.append", Start: 210, End: 220, Parent: 5}, // 6
		{Name: "blockfs.append", Start: 210, End: 220, Parent: 5}, // 7: same interval as 6
	}
	got := selfTimes(spans)
	// core.get: 100 - |[10,50] ∪ [90,100]| = 100 - 40 - 10 = 50.
	// core.put: 60 - |[210,220]| = 50.
	want := []time.Duration{50, 20, 30, 30, 50, 10, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestLayerSplit turns the medians of passes A, B and C into per-layer
// differences; a negative difference stays negative in the output.
func TestLayerSplit(t *testing.T) {
	wire, backend := layerSplit(95, 25, 23)
	if wire != 70 || backend != 2 {
		t.Errorf("layerSplit(95, 25, 23) = %v, %v; want 70, 2", wire, backend)
	}
	wire, backend = layerSplit(0.52, 0.31, 0.38)
	if backend >= 0 {
		t.Fatalf("backend share %v, want the negative difference 0.31-0.38", backend)
	}
	s := newMetricSet()
	s.add("server.wire_slice_ms_p50", "ms", wire)
	s.add("server.backend_slice_ms_p50", "ms", backend)
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"server.backend_slice_ms_p50":{"value":-0.07`) {
		t.Errorf("negative difference not printed as negative: %s", out)
	}
}

func TestQuantile(t *testing.T) {
	var ds []time.Duration
	for i := 1000; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	if q := quantile(ds, 0.50); q != 500 {
		t.Errorf("p50 = %v, want 500", q)
	}
	if q := quantile(ds, 0.99); q != 990 {
		t.Errorf("p99 = %v, want 990", q)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestPerSlice sums each slice's put spans, leaving out the GETs that
// ran between them.
func TestPerSlice(t *testing.T) {
	x := newSpanIndex([]span{
		{Name: spanVerify, Start: 0, End: 5},
		{Name: spanCorePut, Start: 5, End: 15},
		{Name: spanCoreGet, Start: 15, End: 40},
		{Name: spanCorePut, Start: 40, End: 45},
		{Name: spanVerify, Start: 50, End: 55},
		{Name: spanCorePut, Start: 55, End: 62},
		{Name: spanCoreDrop, Start: 70, End: 90},
	})
	if got, want := x.perSlice(spanCorePut), []time.Duration{15, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("perSlice = %v, want %v", got, want)
	}
}

// TestQuietWindows checks that a windowed metric is taken over the
// windows in which the host stole the least CPU time, whatever the
// program did in them, and over every window when the host was calm or
// cannot be read.
func TestQuietWindows(t *testing.T) {
	saved := host
	defer func() { host = saved }()
	t0 := time.Unix(1000, 0)
	sec := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
	host = &hostClock{}
	// Six one-second windows; 40 % of the CPU is stolen in the odd ones.
	var steal, total int64
	for i := 0; i <= 6; i++ {
		host.add(sec(i), steal, total)
		if i%2 == 1 {
			steal += 80
		}
		total += 200
	}
	var s samples
	for w, d := range []time.Duration{10, 500, 30, 700, 20, 600} {
		for k := 0; k < 20; k++ {
			s.add(d, w, sec(w).Add(time.Duration(k+1)*40*time.Millisecond))
		}
	}
	if got := s.windowed(0.50, 20); got != 20 {
		t.Errorf("windowed p50 = %v, want 20, the median of quiet windows 0, 2 and 4", got)
	}
	if got := s.pooled(0.99); got != 30 {
		t.Errorf("pooled p99 = %v, want 30, from quiet windows 0, 2 and 4", got)
	}
	// At 1 % stolen the host counts as calm: every window is kept.
	host = &hostClock{}
	steal, total = 0, 0
	for i := 0; i <= 6; i++ {
		host.add(sec(i), steal, total)
		if i%2 == 1 {
			steal += 2
		}
		total += 200
	}
	if got := s.windowed(0.50, 20); got != 265 {
		t.Errorf("with 1 %% stolen windowed p50 = %v, want 265, over every window", got)
	}
	host = &hostClock{}
	if got := s.windowed(0.50, 20); got != 265 {
		t.Errorf("with no host samples windowed p50 = %v, want 265, over every window", got)
	}
}

// TestRegroup joins consecutive windows until each holds enough
// samples, folding a short remainder into the last group.
func TestRegroup(t *testing.T) {
	var s samples
	at := time.Unix(1000, 0)
	for w, n := range []int{3, 3, 5, 2, 1} {
		for k := 0; k < n; k++ {
			at = at.Add(time.Millisecond)
			s.add(time.Duration(w), w, at)
		}
	}
	g := s.regroup(5)
	ws, groups := g.groups()
	var sizes []int
	for _, w := range ws {
		sizes = append(sizes, len(groups[w]))
	}
	if !reflect.DeepEqual(sizes, []int{6, 8}) {
		t.Errorf("group sizes %v, want [6 8]", sizes)
	}
	if len(g.span) != 2 || !g.span[1][1].Equal(at) {
		t.Errorf("spans %v, want two, the last ending at %v", g.span, at)
	}
}
