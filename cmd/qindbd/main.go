// Command qindbd runs a standalone QinDB storage node over TCP — the
// network face a Mint storage node presents inside a data center. The
// engine persists to a simulated SSD (the process's memory), which makes
// the daemon useful for protocol integration and load testing rather
// than durable storage.
//
//	go run ./cmd/qindbd -addr 127.0.0.1:7707 -capacity 1073741824
//
// Interact with it through internal/server.Client, e.g.:
//
//	cl, _ := server.Dial("127.0.0.1:7707", server.WithTimeout(2*time.Second))
//	cl.PutContext(ctx, []byte("k"), 1, []byte("v"), false)
//
// Clients pipeline or batch requests from a connection's first frame
// (there is no handshake); -max-inflight bounds how many the server
// dispatches concurrently per connection.
//
// With -resp-addr set the daemon additionally serves the same engine
// over RESP2 (the Redis protocol), so redis-cli and off-the-shelf Redis
// clients work out of the box:
//
//	go run ./cmd/qindbd -addr 127.0.0.1:7707 -resp-addr 127.0.0.1:6379
//	redis-cli -p 6379 SET greeting hello
//
// Both listeners share one server.Backend — one engine, one set of
// server.* metrics, one slowlog, one trace timeline.
//
// With -metrics-addr set the daemon exposes the operator endpoints of
// internal/ops: /metrics (text, ?format=json, ?format=prom), /slo,
// /events, /healthz, /readyz, /debug/trace, /debug/trace/export,
// /debug/slowlog, /debug/attrib (per-op resource attribution, see
// -attr-sample), /index (the inverted-index lifecycle of
// internal/search: create, ingest, query, CIFF export/import — index
// segments are versioned values in the same engine the KV front doors
// serve), and (with -pprof) the runtime profiler under
// /debug/pprof/ plus windowed delta captures at /debug/profile. Go
// runtime telemetry (heap, GC, goroutines) is sampled every
// -runtime-interval and exported as runtime.* gauges. With -record set
// it appends one JSONL snapshot of {slo, throughput, p99, runtime,
// events} per -record-interval to the given file — the artifact a
// chaos run or canary deploy is judged against. With -profile-on-burn
// set, an SLO burn crossing triggers one bounded heap+cpu profile
// capture into the given directory (10-minute cooldown).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/ops"
	"directload/internal/resp"
	"directload/internal/search"
	"directload/internal/server"
	"directload/internal/ssd"
)

var (
	addr          = flag.String("addr", "127.0.0.1:7707", "listen address")
	respAddr      = flag.String("resp-addr", "", "Redis-compatible (RESP2) listen address (empty = off)")
	capacity      = flag.Int64("capacity", 1<<30, "simulated SSD capacity in bytes")
	aofSize       = flag.Int64("aof", 64<<20, "AOF file size in bytes (paper: 64 MB)")
	gcThresh      = flag.Float64("gc", 0.25, "lazy GC occupancy threshold (paper: 0.25)")
	ckpt          = flag.Int64("checkpoint", 256<<20, "auto-checkpoint every N bytes (0 = off)")
	metricsAddr   = flag.String("metrics-addr", "", "HTTP address for the operator endpoints (empty = off)")
	pprofOn       = flag.Bool("pprof", false, "mount /debug/pprof/* on the metrics address")
	slowThresh    = flag.Duration("slowlog-threshold", 10*time.Millisecond, "record ops at or above this latency in /debug/slowlog (0 = off)")
	slowCap       = flag.Int("slowlog-cap", 0, "slow-op entries retained (0 = default 256)")
	memHighWater  = flag.Int64("memtable-highwater", 0, "report not-ready once the memtable exceeds this many bytes (0 = no check)")
	maxInFlight   = flag.Int("max-inflight", 0, "concurrent requests dispatched per connection (0 = default)")
	readTimeout   = flag.Duration("read-timeout", 0, "per-frame read deadline, doubles as idle timeout (0 = none)")
	writeTimeout  = flag.Duration("write-timeout", 0, "per-frame write deadline (0 = none)")
	shutdownGrace = flag.Duration("shutdown-grace", 3*time.Second, "deadline for draining the metrics HTTP server on shutdown")
	nodeID        = flag.String("node-id", "", "node name stamped onto exported trace spans (default: the listen address)")
	sloReadTarget = flag.Float64("slo-read-target", 0.006, "tolerated get-miss ratio for the read SLO (paper: 0.006; 0 = off)")
	eventsCap     = flag.Int("events-cap", 0, "structured events retained for /events (0 = default 1024)")
	recordPath    = flag.String("record", "", "append periodic {ts, slo, throughput, p99} JSONL snapshots to this file (empty = off)")
	recordEvery   = flag.Duration("record-interval", time.Second, "snapshot cadence for -record")
	attrSample    = flag.Int("attr-sample", 64, "measure one request in N for per-op resource attribution on /debug/attrib (0 = off)")
	runtimeEvery  = flag.Duration("runtime-interval", time.Second, "Go runtime telemetry sampling cadence for the runtime.* gauges (0 = off)")
	profileOnBurn = flag.String("profile-on-burn", "", "capture heap+cpu profiles into this directory when the read SLO starts burning (empty = off)")
)

// coreEngine adapts the storage engine to the search store's
// exact-version KV surface; index chunks become ordinary versioned
// engine values (dedup off: postings chunks change every version).
type coreEngine struct {
	db *core.DB
}

func (e coreEngine) Put(key string, version uint64, value []byte) error {
	_, err := e.db.Put([]byte(key), version, value, false)
	return err
}

func (e coreEngine) Get(key string, version uint64) ([]byte, error) {
	v, _, err := e.db.Get([]byte(key), version)
	return v, err
}

// readiness builds the /readyz check: the engine must be open, the AOF
// store not under space pressure, and the memtable below the high-water
// mark (when one is configured).
func readiness(db *core.DB, highWater int64) func() error {
	return func() error {
		h := db.Health()
		switch {
		case h.Closed:
			return fmt.Errorf("engine closed")
		case h.UnderPressure:
			return fmt.Errorf("aof store under space pressure")
		case highWater > 0 && h.MemtableBytes > highWater:
			return fmt.Errorf("memtable %d bytes over high-water %d", h.MemtableBytes, highWater)
		}
		return nil
	}
}

func main() {
	log.SetFlags(log.LstdFlags)
	flag.Parse()

	reg := metrics.NewRegistry()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(*capacity))
	if err != nil {
		log.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF:                  aof.Config{FileSize: *aofSize, GCThreshold: *gcThresh},
		CheckpointEveryBytes: *ckpt,
		Seed:                 1,
		Metrics:              reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	slow := metrics.NewSlowLog(*slowCap, *slowThresh)
	events := metrics.NewEventLog(*eventsCap)
	var readSLO *metrics.SLO
	if *sloReadTarget > 0 {
		readSLO = metrics.NewSLO(metrics.SLOConfig{
			Name:   "node.read",
			Target: *sloReadTarget,
			Events: events,
		})
		readSLO.Register(reg)
	}
	s := server.New(db)
	s.SetMetrics(reg)
	s.SetSlowLog(slow)
	s.SetReadSLO(readSLO)
	if *attrSample > 0 {
		// Sampled per-op resource attribution across every front door,
		// served at /debug/attrib on the metrics address.
		s.SetAttribution(*attrSample)
	}
	var runtimeSampler *metrics.RuntimeSampler
	if *runtimeEvery > 0 {
		runtimeSampler = metrics.NewRuntimeSampler(metrics.RuntimeSamplerConfig{Interval: *runtimeEvery})
		runtimeSampler.Register(reg)
		runtimeSampler.Start()
		defer runtimeSampler.Close()
	}
	if *maxInFlight > 0 {
		s.SetMaxInFlight(*maxInFlight)
	}
	s.SetTimeouts(*readTimeout, *writeTimeout)

	node := *nodeID
	if node == "" {
		node = *addr
	}
	var respSrv *resp.Server
	if *respAddr != "" {
		// The RESP front door shares the native listener's Backend:
		// same engine, same server.* metrics, same slowlog and SLO.
		respSrv = resp.New(s.Backend())
		respSrv.SetNode(node)
		go func() {
			if err := respSrv.ListenAndServe(*respAddr); err != nil {
				log.Printf("qindbd: resp listener: %v", err)
			}
		}()
		log.Printf("qindbd: RESP (Redis-compatible) listener on %s", *respAddr)
	}
	var opsSrv *ops.Server
	if *metricsAddr != "" {
		// The index lifecycle rides on the operator address: segments
		// are versioned values in the same engine the KV front doors
		// serve, so /index queries and RESP/native traffic share one
		// store, one registry, one trace timeline.
		searchSvc := search.NewService(coreEngine{db: db}, reg)
		opsSrv, err = ops.Listen(*metricsAddr, ops.Config{
			Registry:    reg,
			SlowLog:     slow,
			Node:        node,
			SLOs:        []*metrics.SLO{readSLO},
			Events:      events,
			Ready:       readiness(db, *memHighWater),
			EnablePprof: *pprofOn,
			Attrib:      s.Backend().Attribution,
			Index:       search.NewHandler(searchSvc),
		})
		if err != nil {
			log.Fatal(err)
		}
		go opsSrv.Serve()
		log.Printf("qindbd: operator endpoints on http://%s/metrics", opsSrv.Addr())
	}
	var recorder *metrics.Recorder
	if *recordPath != "" {
		recorder, err = metrics.NewRecorder(metrics.RecorderConfig{
			Path:             *recordPath,
			Interval:         *recordEvery,
			Registry:         reg,
			SLOs:             []*metrics.SLO{readSLO},
			Events:           events,
			RateCounters:     []string{"server.req.get", "server.req.put", "server.req.putd", "server.req.batch"},
			LatencyHistogram: "server.req.get.latency_us",
			Runtime:          runtimeSampler,
		})
		if err != nil {
			log.Fatal(err)
		}
		recorder.Start()
		defer recorder.Close()
		log.Printf("qindbd: recording time series to %s every %s", *recordPath, *recordEvery)
	}
	var burnProf *metrics.BurnProfiler
	if *profileOnBurn != "" {
		burnProf = metrics.NewBurnProfiler(metrics.BurnProfilerConfig{
			Events: events,
			Dir:    *profileOnBurn,
			Types:  []string{"heap", "cpu"},
			Logf:   log.Printf,
		})
		burnProf.Start()
		defer burnProf.Close()
		log.Printf("qindbd: will capture profiles to %s on SLO burn", *profileOnBurn)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Println("shutting down")
		if respSrv != nil {
			respSrv.Close()
		}
		s.Close()
	}()
	log.Printf("qindbd: serving on %s (capacity %d MB, AOF %d MB, GC threshold %.2f)",
		*addr, *capacity>>20, *aofSize>>20, *gcThresh)
	if err := s.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
	// Drain the operator HTTP server under a deadline; a scrape stuck
	// past the grace period is reported, not silently abandoned.
	if opsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		if err := opsSrv.Shutdown(ctx); err != nil {
			log.Printf("qindbd: metrics server shutdown: %v", err)
		}
		cancel()
	}
	st := db.Stats()
	log.Printf("qindbd: stopped after %d puts / %d gets, %d MB user writes",
		st.Puts, st.Gets, st.UserWriteBytes>>20)
}
