package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of ds, or NaN for none.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

// samples are timings tagged with the sub-window of the run they fell
// in, so that a metric can be the median of its per-window values: a
// burst of noise from outside moves one window, not the result. Each
// window remembers when its first sample began and its last ended, so
// that hostClock can tell how much CPU time was stolen in it.
type samples struct {
	d    []time.Duration
	win  []int32
	span map[int32][2]time.Time
}

// add records d, which ended at end, in window win.
func (s *samples) add(d time.Duration, win int, end time.Time) {
	s.d = append(s.d, d)
	s.win = append(s.win, int32(win))
	if s.span == nil {
		s.span = make(map[int32][2]time.Time)
	}
	w, begin := int32(win), end.Add(-d)
	sp, ok := s.span[w]
	if !ok {
		sp = [2]time.Time{begin, end}
	}
	if begin.Before(sp[0]) {
		sp[0] = begin
	}
	if end.After(sp[1]) {
		sp[1] = end
	}
	s.span[w] = sp
}

// appendRun adds the samples of another run after s's, in windows of
// their own.
func (s *samples) appendRun(o samples) {
	next := int32(0)
	for _, w := range s.win {
		next = max(next, w+1)
	}
	for i, d := range o.d {
		s.d = append(s.d, d)
		s.win = append(s.win, next+o.win[i])
	}
	if s.span == nil {
		s.span = make(map[int32][2]time.Time)
	}
	for w, sp := range o.span {
		s.span[next+w] = sp
	}
}

// groups returns the window numbers in order and each one's samples.
func (s *samples) groups() ([]int32, map[int32][]time.Duration) {
	groups := make(map[int32][]time.Duration)
	for i, d := range s.d {
		groups[s.win[i]] = append(groups[s.win[i]], d)
	}
	ws := make([]int32, 0, len(groups))
	for w := range groups {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return ws, groups
}

// regroup joins consecutive windows until each holds at least minN
// samples; a short remainder joins the last full group.
func (s *samples) regroup(minN int) samples {
	ws, groups := s.groups()
	to := make(map[int32]int32, len(ws))
	var next int32
	n := 0
	for _, w := range ws {
		to[w] = next
		if n += len(groups[w]); n >= minN {
			next, n = next+1, 0
		}
	}
	if n > 0 && next > 0 {
		for w, g := range to {
			if g == next {
				to[w] = next - 1
			}
		}
	}
	out := samples{span: make(map[int32][2]time.Time)}
	for i, d := range s.d {
		out.d = append(out.d, d)
		out.win = append(out.win, to[s.win[i]])
	}
	for w, sp := range s.span {
		g := to[w]
		if cur, ok := out.span[g]; ok {
			sp = [2]time.Time{minTime(sp[0], cur[0]), maxTime(sp[1], cur[1])}
		}
		out.span[g] = sp
	}
	return out
}

// windowed is the median, over the quiet (hostClock.quiet) windows that
// hold at least minN samples, of each window's q-quantile.
func (s *samples) windowed(q float64, minN int) float64 {
	ws, groups := s.groups()
	var qs []float64
	var spans [][2]time.Time
	for _, w := range ws {
		if g := groups[w]; len(g) >= minN {
			qs = append(qs, quantile(g, q))
			spans = append(spans, s.span[w])
		}
	}
	return median(pick(qs, host.quiet(spans)))
}

// pooled is the q-quantile of every sample in the quiet windows, for
// metrics whose windows hold too few samples for one each.
func (s *samples) pooled(q float64) float64 {
	ws, groups := s.groups()
	spans := make([][2]time.Time, len(ws))
	for i, w := range ws {
		spans[i] = s.span[w]
	}
	var ds []time.Duration
	for i, keep := range host.quiet(spans) {
		if keep {
			ds = append(ds, groups[ws[i]]...)
		}
	}
	return quantile(ds, q)
}

// maxOf returns the largest of ds, or NaN for none.
func maxOf(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	m := ds[0]
	for _, d := range ds[1:] {
		if d > m {
			m = d
		}
	}
	return float64(m)
}

// median of plain numbers.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// A duration in nanoseconds as µs or ms.
func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover; overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int32][][2]time.Duration)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, children[int32(i+1)])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]time.Duration(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, iv := range s {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// layerSplit peels one operation's cost by layer from the medians of the
// three passes: A enters at the front door, B at server.Backend, C at
// core.DB. The wire share (plus contention, since B and C run
// uncontended) is A-B and the Backend's is B-C; the engine's is C
// itself. A difference below zero is reported as it is, never clamped.
func layerSplit(a, b, c float64) (wire, backend float64) {
	return a - b, b - c
}
