package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/resp"
	"directload/internal/server"
	"directload/internal/ssd"
)

// Engine configuration, matching qindbd's defaults except the device,
// which is sized so that no write fails (a block holds memory only once
// programmed, so the headroom costs nothing).
const (
	deviceBytes     = 4 << 30
	aofFileBytes    = 64 << 20
	gcThreshold     = 0.25
	checkpointBytes = 256 << 20
	slowlogLimit    = 10 * time.Millisecond
	readSLOTarget   = 0.006
	attribEvery     = 64
)

// node is one storage node on loopback: core.DB over blockfs.NativeFS
// over ssd.Device, served by the native listener and the RESP listener
// on one server.Backend, with the registry, slowlog, read SLO,
// attribution and runtime sampler qindbd attaches by default.
type node struct {
	dev     *ssd.Device
	db      *core.DB
	reg     *metrics.Registry
	srv     *server.Server
	resp    *resp.Server
	rt      *metrics.RuntimeSampler
	backend *server.Backend

	nativeAddr string
	respAddr   string
	served     chan error
}

// startNode opens the engine and both listeners. A non-nil probe wraps
// the filesystem the engine is opened on and hooks the device.
func startNode(probe *probe) (*node, error) {
	dev, err := ssd.NewDevice(ssd.DefaultConfig(deviceBytes))
	if err != nil {
		return nil, err
	}
	var fs blockfs.FS = blockfs.NewNativeFS(dev)
	if probe != nil {
		fs = probe.wrapFS(fs)
		probe.hookDevice(dev)
	}
	reg := metrics.NewRegistry()
	db, err := core.Open(fs, core.Options{
		AOF:                  aof.Config{FileSize: aofFileBytes, GCThreshold: gcThreshold},
		CheckpointEveryBytes: checkpointBytes,
		Seed:                 1,
		Metrics:              reg,
	})
	if err != nil {
		return nil, err
	}
	n := &node{dev: dev, db: db, reg: reg, served: make(chan error, 2)}
	events := metrics.NewEventLog(0)
	slo := metrics.NewSLO(metrics.SLOConfig{Name: "node.read", Target: readSLOTarget, Events: events})
	slo.Register(reg)
	n.srv = server.New(db)
	n.srv.SetMetrics(reg)
	n.srv.SetSlowLog(metrics.NewSlowLog(0, slowlogLimit))
	n.srv.SetReadSLO(slo)
	n.srv.SetAttribution(attribEvery)
	n.backend = n.srv.Backend()
	n.rt = metrics.NewRuntimeSampler(metrics.RuntimeSamplerConfig{Interval: time.Second})
	n.rt.Register(reg)
	n.rt.Start()
	n.resp = resp.New(n.backend)

	nativeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.closeEngine()
		return nil, err
	}
	respLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		nativeLn.Close()
		n.closeEngine()
		return nil, err
	}
	n.nativeAddr = nativeLn.Addr().String()
	n.respAddr = respLn.Addr().String()
	go func() { n.served <- n.srv.Serve(nativeLn) }()
	go func() { n.served <- n.resp.Serve(respLn) }()
	return n, nil
}

// close stops both listeners, waits for their accept loops to return,
// and closes the engine.
func (n *node) close() error {
	errs := []error{n.resp.Close(), n.srv.Close()}
	for i := 0; i < 2; i++ {
		errs = append(errs, <-n.served)
	}
	errs = append(errs, n.closeEngine())
	return errors.Join(errs...)
}

func (n *node) closeEngine() error {
	return errors.Join(n.rt.Close(), n.db.Close())
}

// keyCounter reports how many live keys a version holds (core.DB).
type keyCounter interface{ KeyCount(version uint64) int }

// checkVersions verifies that each retained version holds the whole
// keyspace and each dropped version none of it: a drop the fleet queued
// for handoff instead of delivering returns no error, but leaves the
// version in the engine.
func checkVersions(db keyCounter, kept, dropped []uint64, keys int) error {
	var errs []error
	for _, v := range kept {
		if got := db.KeyCount(v); got != keys {
			errs = append(errs, fmt.Errorf("version %d holds %d keys, want %d", v, got, keys))
		}
	}
	for _, v := range dropped {
		if got := db.KeyCount(v); got != 0 {
			errs = append(errs, fmt.Errorf("dropped version %d still holds %d keys", v, got))
		}
	}
	return errors.Join(errs...)
}
