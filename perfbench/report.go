package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"
)

// metricSet is an ordered set of named measurements.
type metricSet struct {
	names []string
	vals  map[string]metricVal
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetricSet() *metricSet { return &metricSet{vals: make(map[string]metricVal)} }

func (s *metricSet) add(name, unit string, v float64) {
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] = metricVal{v, unit}
}

func (s *metricSet) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, n := range s.names {
		v := s.vals[n]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value", n)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(n)
		val, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(val)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool       `json:"correct"`
	Attempted int64      `json:"attempted"`
	Failed    int64      `json:"failed"`
	Metrics   *metricSet `json:"metrics"`
}

// Workload names.
const (
	wlPublish = "publish"
	wlServe   = "serve"
	wlUpdate  = "update"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// Fewest samples a quantile is taken over: a p99 needs ten beyond it.
const (
	minP50 = 20
	minP99 = 1000
)

// endToEnd computes the metrics a user of the system sees. Every
// workload reports every one. Publish metrics cover the window's publish
// loop, or on serve, which publishes nothing after set-up, the set-up's
// initial load. GET metrics cover serve's window; on publish and update
// they cover the read-back after the window, except update's fleet.Get
// latencies, which are its open-loop GETs during the window, timed from
// their due time. Throughputs and percentiles are the median of their
// values in the run's sub-windows (one per version published, one per
// second of reads). The slice p50 pools the run, whose versions hold
// about a dozen 4 MiB slices each; update's GET p99 is the median over
// groups of consecutive versions that hold enough GETs for one.
func endToEnd(wl string, m *measurement, setup float64) *metricSet {
	s := newMetricSet()
	s.add("setup_s", "s", setup)
	st := &m.pub
	s.add("publish_MBps", "MB/s", median(pick(st.rates, host.quiet(st.spans))))
	s.add("slice_ms_p50", "ms", ms(st.slices.pooled(0.50)))
	s.add("write_amp", "ratio", ratio(float64(m.programmed), float64(st.sent)))
	s.add("space_amp", "ratio", ratio(float64(m.flash), float64(m.liveKV)))
	s.add("dedup_saving", "ratio", ratio(float64(st.stripped), float64(st.valueBytes)))
	rd := m
	if m.back != nil {
		rd = m.back
	}
	native, resp := &rd.streams[0], &rd.streams[1]
	s.add("get_per_s", "ops/s", rd.getRate())
	if wl == wlUpdate {
		s.add("native_get_us_p50", "us", us(m.streams[0].windowed(0.50, minP50)))
		// A version holds about 550 GETs, too few for a p99: windows
		// of consecutive versions with 1,000 or more between them.
		g := m.streams[0].regroup(minP99)
		s.add("native_get_us_p99", "us", us(g.windowed(0.99, minP99)))
	} else {
		s.add("native_get_us_p50", "us", us(native.windowed(0.50, minP50)))
		s.add("native_get_us_p99", "us", us(native.windowed(0.99, minP99)))
	}
	s.add("resp_get_us_p50", "us", us(resp.windowed(0.50, minP50)))
	s.add("resp_get_us_p99", "us", us(resp.windowed(0.99, minP99)))
	s.add("alloc_KB_per_op", "KB", ratio(float64(m.allocs)/1e3, float64(m.ops)))
	s.add("heap_MB", "MB", float64(m.heap)/1e6)
	return s
}

// getRate is a closed read loop's GETs per second: the median of both
// clients' completions over its quiet (hostClock.quiet) one-second
// sub-windows.
func (m *measurement) getRate() float64 {
	counts := make(map[int32]float64)
	spans := make(map[int32][2]time.Time)
	for _, st := range m.streams {
		for _, w := range st.win {
			counts[w]++
		}
		for w, sp := range st.span {
			if cur, ok := spans[w]; ok {
				sp = [2]time.Time{minTime(sp[0], cur[0]), maxTime(sp[1], cur[1])}
			}
			spans[w] = sp
		}
	}
	var rates []float64
	var sps [][2]time.Time
	for w, n := range counts {
		d := time.Second
		if last := int32(len(counts) - 1); w == last {
			d = m.timed - time.Duration(last)*time.Second
		}
		rates = append(rates, n/d.Seconds())
		sps = append(sps, spans[w])
	}
	return median(pick(rates, host.quiet(sps)))
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// spanIndex groups a pass's spans for the per-layer arithmetic.
type spanIndex struct {
	spans []span
	self  []time.Duration
}

func newSpanIndex(spans []span) spanIndex {
	return spanIndex{spans: spans, self: selfTimes(spans)}
}

// durs returns the durations of the spans called name whose parent is
// called parent ("" for any parent).
func (x spanIndex) durs(name, parent string) []time.Duration {
	var out []time.Duration
	for _, s := range x.spans {
		if s.Name == name && x.parentIs(s, parent) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfDurs is durs with each span's self time.
func (x spanIndex) selfDurs(name string) []time.Duration {
	var out []time.Duration
	for i, s := range x.spans {
		if s.Name == name {
			out = append(out, x.self[i])
		}
	}
	return out
}

// sum counts the spans called name whose parent is called parent (""
// for any) and adds up their bytes and durations.
func (x spanIndex) sum(name, parent string) (n int, bytes int64, dur time.Duration) {
	for _, s := range x.spans {
		if s.Name == name && x.parentIs(s, parent) {
			n++
			bytes += s.Bytes
			dur += s.End - s.Start
		}
	}
	return n, bytes, dur
}

// perSlice sums, for each slice write, the durations of the spans called
// name that it made. Passes B and C make every call from one goroutine,
// so a slice's spans are those between its bifrost.verify span and the
// next one.
func (x spanIndex) perSlice(name string) []time.Duration {
	var out []time.Duration
	for _, s := range x.spans {
		switch {
		case s.Name == spanVerify:
			out = append(out, 0)
		case s.Name == name && len(out) > 0:
			out[len(out)-1] += s.End - s.Start
		}
	}
	return out
}

func (x spanIndex) parentIs(s span, parent string) bool {
	return parent == "" || s.Parent > 0 && x.spans[s.Parent-1].Name == parent
}

// perLayer computes the traced run's per-layer metrics from its plain
// pass and passes A, B and C. Every workload reports every metric; one
// over calls a workload's window does not make (a GET latency on
// publish, a slice time on serve) reads 0.
func perLayer(wl string, plain, a, b, c *measurement) *metricSet {
	s := zeroedSet{newMetricSet()}
	ai, bi, ci := newSpanIndex(a.spans), newSpanIndex(b.spans), newSpanIndex(c.spans)
	p50 := func(ds []time.Duration) float64 { return quantile(ds, 0.50) }

	// fleet: the slowest slice write. A run's hundred-odd 4 MiB slices
	// are too few for a p99 with ten samples beyond it.
	s.add("fleet.slice_ms_max", "ms", ms(maxOf(a.pub.slices.d)))

	// bifrost: the same benchmark-side calls in every pass; pass A's.
	s.add("bifrost.process_us_p50", "us", us(p50(ai.durs(spanProcess, ""))))
	s.add("bifrost.verify_ms_p50", "ms", ms(p50(ai.durs(spanVerify, ""))))
	s.add("bifrost.dedup_keys", "count", float64(a.pub.dedupKeys))

	// Wire and Backend: differences of pass medians.
	bGet, cGet := p50(bi.durs(spanBackendGet, "")), p50(ci.durs(spanCoreGet, ""))
	wire, backend := layerSplit(p50(ai.durs(spanFleetGet, "")), bGet, cGet)
	respWire, _ := layerSplit(p50(ai.durs(spanRESPGet, "")), bGet, cGet)
	s.add("server.wire_get_us_p50", "us", us(wire))
	s.add("resp.wire_get_us_p50", "us", us(respWire))
	s.add("server.backend_get_us_p50", "us", us(backend))
	// Pass C's slice cost is its DB.Put calls alone: in update the
	// GETs that fall due run between them, inside the slice write.
	wire, backend = layerSplit(p50(ai.durs(spanFleetPublish, "")),
		p50(bi.durs(spanBackendBatch, "")), p50(ci.perSlice(spanCorePut)))
	s.add("server.wire_slice_ms_p50", "ms", ms(wire))
	s.add("server.backend_slice_ms_p50", "ms", ms(backend))

	// core: pass C's direct calls.
	s.add("core.get_us_p50", "us", us(p50(ci.durs(spanCoreGet, ""))))
	s.add("core.get_us_p99", "us", us(quantile(ci.durs(spanCoreGet, ""), 0.99)))
	s.add("core.get_self_us_p50", "us", us(p50(ci.selfDurs(spanCoreGet))))
	s.add("core.has_us_p50", "us", us(p50(ci.durs(spanCoreHas, ""))))
	for _, m := range []*measurement{c, a, b} {
		name := "core.traceback_ratio"
		if m != c {
			name += ".pass_" + m.pass.String()
		}
		s.add(name, "ratio", tracebackRatio(m))
	}
	s.add("core.put_us_p50", "us", us(p50(ci.durs(spanCorePut, ""))))
	s.add("core.put_self_us_p50", "us", us(p50(ci.selfDurs(spanCorePut))))
	s.add("core.drop_ms_max", "ms", ms(maxOf(ci.durs(spanCoreDrop, ""))))
	s.add("core.memtable_MB", "MB", float64(a.memtab)/1e6)

	// aof: engine counter deltas in pass A, the run closest to the plain one.
	d0, d1 := a.c0.db, a.c1.db
	s.add("aof.appended_per_user_byte", "ratio", ratio(float64(d1.Store.AppendedBytes-d0.Store.AppendedBytes), float64(d1.UserWriteBytes-d0.UserWriteBytes)))
	g := aofGC(a)
	s.add("aof.gc_runs", "count", g.runs)
	s.add("aof.gc_moved_MB", "MB", g.movedMB)
	s.add("aof.gc_freed_MB", "MB", g.freedMB)
	s.add("aof.live_ratio", "ratio", ratio(float64(a.c1.db.Store.LiveBytes), float64(a.c1.db.Store.TotalBytes)))

	// blockfs: pass C's wrapper spans, tied to the call in flight.
	gets := float64(len(ci.durs(spanCoreGet, "")))
	reads, bytes, _ := ci.sum(spanFSReadAt, spanCoreGet)
	s.add("blockfs.read_us_p50", "us", us(p50(ci.durs(spanFSReadAt, spanCoreGet))))
	s.add("blockfs.reads_per_get", "ratio", ratio(float64(reads), gets))
	s.add("blockfs.read_KB_per_get", "KB", ratio(float64(bytes)/1e3, gets))
	appends, _, _ := ci.sum(spanFSAppend, spanCorePut)
	_, _, remove := ci.sum(spanFSRemove, "")
	s.add("blockfs.append_us_p50", "us", us(p50(ci.durs(spanFSAppend, spanCorePut))))
	s.add("blockfs.appends_per_entry", "ratio", ratio(float64(appends), float64(len(ci.durs(spanCorePut, "")))))
	s.add("blockfs.remove_ms_total", "ms", ms(float64(remove)))
	var sim time.Duration
	for _, sp := range c.spans {
		if strings.HasPrefix(sp.Name, "blockfs.") {
			sim += sp.Sim
		}
	}
	s.add("blockfs.sim_ms", "sim-ms", ms(float64(sim)))

	// ssd: device hooks; per-GET traffic from pass C's DB.Get calls.
	s.add("ssd.pages_read_per_get", "ratio", ratio(float64(c.gets.dev.reads), gets))
	s.add("ssd.read_amp", "ratio", ratio(float64(c.gets.dev.readBytes), float64(c.gets.value)))
	s.add("ssd.pages_programmed_per_MB", "ratio", pagesProgrammedPerMB(a))
	s.add("ssd.erases", "count", float64(a.c1.dev.Erases-a.c0.dev.Erases))
	s.add("ssd.sim_busy_ms", "sim-ms", ms(float64(a.c1.dev.BusyTime-a.c0.dev.BusyTime)))

	// runtime: pass A.
	s.add("runtime.gc_cycles", "count", float64(a.c1.gcs-a.c0.gcs))
	s.add("runtime.gc_pause_ms_max", "ms", ms(float64(gcPauseMax(a.c0, a.c1))))

	// loadgen and the read SLO: the plain pass's open-loop GETs (update).
	s.add("loadgen.lag_ms_p99", "ms", ms(quantile(plain.lag, 0.99)))
	s.add("miss_ratio", "ratio", ratio(float64(plain.misses), float64(plain.due)))

	// host: the share of the machine's CPU time the hypervisor took
	// during the plain pass's workload.
	s.add("host.steal_pct", "%", 100*host.share(plain.span[0], plain.span[1]))

	// trace: how much worse pass A reads than the plain pass, in percent
	// (negative when it read better).
	pe, ae := endToEnd(wl, plain, plain.setup.Seconds()), endToEnd(wl, a, a.setup.Seconds())
	for _, n := range pe.names {
		worse := ae.vals[n].Value - pe.vals[n].Value
		if higherIsBetter[n] {
			worse = -worse
		}
		s.add("trace.overhead_pct."+n, "%", 100*ratio(worse, pe.vals[n].Value))
	}
	return s.metricSet
}

// zeroedSet reports a metric with no value (no samples, or a ratio over
// nothing) as 0.
type zeroedSet struct{ *metricSet }

func (s zeroedSet) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.metricSet.add(name, unit, v)
}

// higherIsBetter names the end-to-end metrics that improve upwards.
var higherIsBetter = map[string]bool{"publish_MBps": true, "dedup_saving": true, "get_per_s": true}

// The per-layer counts the repeat check compares, one formula each.

// tracebackRatio is the share of the window's engine GETs that followed
// a dedup traceback.
func tracebackRatio(m *measurement) float64 {
	return ratio(float64(m.c1.db.Tracebacks-m.c0.db.Tracebacks), float64(m.c1.db.Gets-m.c0.db.Gets))
}

// gcWork is what the AOF garbage collector did in a window.
type gcWork struct{ runs, movedMB, freedMB float64 }

func aofGC(m *measurement) gcWork {
	d0, d1 := m.c0.db.Store, m.c1.db.Store
	return gcWork{
		runs:    float64(d1.GCRuns - d0.GCRuns),
		movedMB: float64(d1.GCMoved-d0.GCMoved) / 1e6,
		freedMB: float64(d1.GCFreed-d0.GCFreed) / 1e6,
	}
}

// pagesProgrammedPerMB counts page programs through the device hooks, so
// it needs a pass with a probe.
func pagesProgrammedPerMB(m *measurement) float64 {
	return ratio(float64(m.c1.probe.sub(m.c0.probe).programs), float64(m.pub.sent)/1e6)
}
