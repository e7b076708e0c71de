// Command perfbench measures the index-update path of one storage node
// end to end: publishing new index versions through bifrost and fleet,
// serving reads through the native and RESP front doors, and both at
// once. It starts the node in process on loopback and drives it only
// through public calls. See README.md for the workloads and metrics.
//
//	perfbench -workload publish -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRepeats is how many times a plain run sets up a node; it reports
// the median set-up time and measures on the last node.
const setupRepeats = 3

func main() {
	wl := flag.String("workload", "", "workload: publish, serve or update")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps")
	repeat := flag.Bool("repeat-check", false, "run publish and serve twice at -seed and compare their counts")
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *trace, *out, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(wl string, seed int64, seconds, trace int, out string, repeat bool) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	ctx := context.Background()
	host.start()
	defer host.close()
	if repeat {
		return repeatCheck(ctx, seed, seconds)
	}
	switch wl {
	case wlPublish, wlServe, wlUpdate:
	default:
		return fmt.Errorf("unknown workload %q (want publish, serve or update)", wl)
	}
	pl := planFor(wl, seconds)
	var res result
	switch trace {
	case 0:
		m, err := plainRun(ctx, wl, pl, seed)
		if err != nil {
			return err
		}
		report(m)
		res = result{Attempted: m.attempted, Failed: m.failed, Metrics: endToEnd(wl, m, m.setup.Seconds())}
	case 1:
		// Four passes in one run: each measures half as long as a plain
		// run, so that the traced run ends within the time one run may
		// take on a busy host.
		pl = planFor(wl, max(1, seconds/2))
		var passes []*measurement
		for _, p := range []pass{passPlain, passA, passB, passC} {
			m, err := runPass(ctx, p, wl, pl, seed)
			if err != nil {
				return err
			}
			report(m)
			if p == passPlain && wl == wlServe {
				// Passes A, B and C replay the plain pass's reads.
				pl.reads = [2]int{len(m.streams[0].d), len(m.streams[1].d)}
			}
			if p != passPlain {
				if err := writeSpans(out, wl, m); err != nil {
					return err
				}
			}
			res.Attempted += m.attempted
			res.Failed += m.failed
			passes = append(passes, m)
		}
		res.Metrics = perLayer(wl, passes[0], passes[1], passes[2], passes[3])
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// planFor sizes a run. serve reads for -seconds. publish and update
// publish a fixed number of versions, one for every two of -seconds
// (a version takes about a second), so that their byte counts, GC
// cycles and write amplification compare like with like between
// commits, and read back for the other half.
func planFor(wl string, seconds int) plan {
	if wl == wlServe {
		return plan{window: time.Duration(seconds) * time.Second}
	}
	half := max(1, seconds/2)
	return plan{versions: half, window: time.Duration(half) * time.Second}
}

// plainRun sets a node up setupRepeats times from one generation of the
// initial versions, measures the workload on the last node, and reports
// the median set-up time. serve's publish rates and slice times pool
// every set-up's initial load.
func plainRun(ctx context.Context, wl string, pl plan, seed int64) (*measurement, error) {
	ds, err := newDataset(seed, keyCount)
	if err != nil {
		return nil, err
	}
	initial, err := ds.initial()
	if err != nil {
		return nil, err
	}
	var setups []float64
	var loads publishStats
	for k := 0; ; k++ {
		s, err := openSession(ctx, passPlain, ds, initial)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		loads.rates = append(loads.rates, s.load.rates...)
		loads.spans = append(loads.spans, s.load.spans...)
		loads.slices.appendRun(s.load.slices)
		if k == setupRepeats-1 {
			initial = nil // the window generates its own versions
			m, err := measure(ctx, s, wl, pl, seed)
			if err != nil {
				return nil, err
			}
			m.setup = time.Duration(median(setups) * float64(time.Second))
			if wl == wlServe {
				m.pub.rates, m.pub.spans, m.pub.slices = loads.rates, loads.spans, loads.slices
			}
			return m, nil
		}
		if err := s.close(); err != nil {
			return nil, err
		}
		freeMemory()
	}
}

// runPass sets up a fresh node for pass p, with its own generation of
// the inputs, and measures the workload on it.
func runPass(ctx context.Context, p pass, wl string, pl plan, seed int64) (*measurement, error) {
	ds, err := newDataset(seed, keyCount)
	if err != nil {
		return nil, err
	}
	initial, err := ds.initial()
	if err != nil {
		return nil, err
	}
	s, err := openSession(ctx, p, ds, initial)
	if err != nil {
		return nil, err
	}
	return measure(ctx, s, wl, pl, seed)
}

// measure runs the workload on s and tears s down.
func measure(ctx context.Context, s *session, wl string, pl plan, seed int64) (*measurement, error) {
	defer freeMemory()
	// Collect the set-up's garbage, so that no GC cycle it owes runs in
	// the window.
	runtime.GC()
	var m *measurement
	var err error
	began := time.Now()
	switch wl {
	case wlPublish:
		m, err = runPublish(ctx, s, pl, seed)
	case wlServe:
		m, err = runServe(ctx, s, pl, seed)
	case wlUpdate:
		m, err = runUpdate(ctx, s, pl, seed)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	m.span = [2]time.Time{began, time.Now()}
	m.memtab = s.n.db.Health().MemtableBytes
	m.spans = s.tr.snapshot()
	m.gets = s.gets
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.heap = mem.HeapAlloc
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("closing the node: %w", err)
	}
	return m, nil
}

// freeMemory returns a closed node's memory before the next one starts.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// report prints a pass's failures to standard error.
func report(m *measurement) {
	if m.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: pass %s: %d of %d operations failed: %v\n",
			m.pass, m.failed, m.attempted, errors.Join(m.errs...))
	}
}

// writeSpans dumps a pass's spans as JSON lines, one file per workload
// and pass, overwritten by the next traced run.
func writeSpans(out, wl string, m *measurement) error {
	dir := filepath.Join(out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, wl+"."+m.pass.String()+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range m.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
