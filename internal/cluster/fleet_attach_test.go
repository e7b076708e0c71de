package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"directload/internal/aof"
	"directload/internal/bifrost"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/fleet"
	"directload/internal/metrics"
	"directload/internal/server"
	"directload/internal/ssd"
)

// startNode brings up one real TCP storage node. A non-nil reg is
// shared with the node's engine and server, so its handler spans land
// in the same tracer as the publisher's.
func startNode(t *testing.T, reg *metrics.Registry) (string, *core.DB) {
	t.Helper()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(256 << 20))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 4 << 20, GCThreshold: 0.25}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(db)
	s.SetLogf(nil)
	s.SetMetrics(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		s.Close()
		db.Close()
	})
	return ln.Addr().String(), db
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// allNodesFleet is the fleet that ships every entry to every node: one
// group, R = W = N.
func allNodesFleet(t *testing.T, reg *metrics.Registry, addrs []string, opts ...server.DialOption) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(fleet.Config{
		Groups:        [][]string{addrs},
		Replicas:      len(addrs),
		WriteQuorum:   len(addrs),
		ProbeInterval: -1,
		Metrics:       reg,
		DialOpts:      opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFleetPublishAllNodes runs the full remote publish path through an
// all-nodes fleet: every published version lands on every real TCP node
// in batched frames, and retention drops old versions there too.
func TestFleetPublishAllNodes(t *testing.T) {
	reg := metrics.NewRegistry()
	addr1, db1 := startNode(t, nil)
	addr2, _ := startNode(t, nil)

	cfg := DefaultConfig()
	cfg.RetainVersions = 2
	cfg.Metrics = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.AttachFleet(allNodesFleet(t, reg, []string{addr1, addr2}, server.WithPoolSize(2)))

	const n = 500
	entries := func(version int) []Entry {
		out := make([]Entry, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, Entry{
				Key:    []byte(fmt.Sprintf("mk-%03d", i)),
				Value:  []byte(fmt.Sprintf("val-%d-%03d", version, i)),
				Stream: bifrost.StreamInverted,
			})
		}
		return out
	}
	for v := 1; v <= 3; v++ {
		if _, err := d.PublishVersion(uint64(v), entries(v)); err != nil {
			t.Fatalf("publish v%d: %v", v, err)
		}
	}

	// Every node answers the live versions over the wire.
	ctx := context.Background()
	for _, addr := range []string{addr1, addr2} {
		cl, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		val, err := cl.GetContext(ctx, []byte("mk-007"), 3)
		if err != nil || string(val) != "val-3-007" {
			t.Fatalf("%s: Get v3 = %q, %v", addr, val, err)
		}
		// Every entry of the newest version landed on this node.
		ents, _, err := cl.RangeContext(ctx, []byte("mk-"), []byte("mk-~"), 2*n)
		if err != nil || len(ents) != n {
			t.Fatalf("%s: Range = %d entries, %v; want %d", addr, len(ents), err, n)
		}
		// Retention (cap 2) dropped v1 remotely as well: the drop
		// tombstones every record of the version.
		if _, err := cl.GetContext(ctx, []byte("mk-007"), 1); !errors.Is(err, core.ErrDeleted) {
			t.Fatalf("%s: v1 should be retired, got %v", addr, err)
		}
		cl.Close()
	}
	// Spot-check a node engine directly: the records really landed.
	if !db1.Has([]byte("mk-000"), 2) {
		t.Fatal("node 1 missing v2 record")
	}
	if got := reg.Snapshot()["fleet.publish.versions"]; got != int64(3) {
		t.Fatalf("fleet.publish.versions = %v", got)
	}
}

// TestFleetPublishQuorumError: with both nodes of an all-nodes fleet
// down, the publish error must name both, not just the first to fail,
// and the retention drop is queued as hinted handoff for each node
// rather than failing.
func TestFleetPublishQuorumError(t *testing.T) {
	addr1, addr2 := deadAddr(t), deadAddr(t)
	f := allNodesFleet(t, nil, []string{addr1, addr2})
	ctx := context.Background()
	err := f.PublishVersion(ctx, 1, []fleet.Entry{{Key: []byte("k"), Value: []byte("v")}})
	if !errors.Is(err, fleet.ErrQuorum) {
		t.Fatalf("publish with every node down = %v, want ErrQuorum", err)
	}
	if msg := err.Error(); !strings.Contains(msg, addr1) || !strings.Contains(msg, addr2) {
		t.Fatalf("quorum error does not name both nodes: %v", msg)
	}
	depth := func() map[string]int {
		out := make(map[string]int)
		for _, n := range f.Status().Nodes {
			out[n.Addr] = n.HandoffDepth
		}
		return out
	}
	before := depth()
	if err := f.DropVersion(ctx, 1); err != nil {
		t.Fatalf("drop with every node down = %v, want it hinted", err)
	}
	after := depth()
	for _, addr := range []string{addr1, addr2} {
		if after[addr] != before[addr]+1 {
			t.Fatalf("%s handoff depth %d -> %d, want the drop queued", addr, before[addr], after[addr])
		}
	}
}

// TestFleetAttachPublishGet runs the orchestrator with an attached
// fleet: every published version quorum-writes onto the sharded nodes,
// FleetGet serves the newest version via hedged reads, and retention
// drops retired versions fleet-side.
func TestFleetAttachPublishGet(t *testing.T) {
	addr1, db1 := startNode(t, nil)
	addr2, _ := startNode(t, nil)
	addr3, _ := startNode(t, nil)

	cfg := DefaultConfig()
	cfg.RetainVersions = 2
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	f, err := fleet.New(fleet.Config{
		Groups:        [][]string{{addr1, addr2, addr3}},
		Replicas:      3,
		WriteQuorum:   2,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d.AttachFleet(f)

	entries := func(version int) []Entry {
		out := make([]Entry, 0, 40)
		for i := 0; i < 40; i++ {
			out = append(out, Entry{
				Key:    []byte(fmt.Sprintf("fk-%03d", i)),
				Value:  []byte(fmt.Sprintf("val-%d-%03d", version, i)),
				Stream: bifrost.StreamInverted,
			})
		}
		return out
	}
	ctx := context.Background()
	if _, err := d.FleetGet(ctx, []byte("fk-000")); err == nil {
		t.Fatal("FleetGet before any publish should fail")
	}
	for v := 1; v <= 3; v++ {
		if _, err := d.PublishVersion(uint64(v), entries(v)); err != nil {
			t.Fatalf("publish v%d: %v", v, err)
		}
	}

	// FleetGet reads the newest version through the router.
	val, err := d.FleetGet(ctx, []byte("fk-011"))
	if err != nil || string(val) != "val-3-011" {
		t.Fatalf("FleetGet = %q, %v", val, err)
	}
	// With R = group size, every node holds the records.
	if !db1.Has([]byte("fk-000"), 3) {
		t.Fatal("fleet node missing v3 record")
	}
	// Retention (cap 2) dropped v1 on the fleet too.
	if _, err := f.Get(ctx, []byte("fk-000"), 1); !errors.Is(err, core.ErrDeleted) {
		t.Fatalf("v1 should be retired fleet-side, got %v", err)
	}
}

// TestFleetGetDetached covers the no-fleet error path.
func TestFleetGetDetached(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.FleetGet(context.Background(), []byte("k")); err == nil {
		t.Fatal("FleetGet without a fleet should fail")
	}
}
