package ops

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/resp"
	"directload/internal/server"
	"directload/internal/ssd"
)

// TestAttributionE2EBothFrontDoors is the acceptance check for per-op
// attribution: one engine, one Backend, a native listener AND a RESP
// listener on top of it, real traffic through both wires, and
// /debug/attrib reporting alloc bytes/op for the opcodes each front
// door exercised — in one shared table.
func TestAttributionE2EBothFrontDoors(t *testing.T) {
	dev, err := ssd.NewDevice(ssd.DefaultConfig(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 4 << 20, GCThreshold: 0.25}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	srv := server.New(db)
	srv.SetLogf(nil)
	srv.SetMetrics(metrics.NewRegistry())
	srv.SetAttribution(1) // measure every request: deterministic counts
	backend := srv.Backend()

	nativeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(nativeLn)
	defer srv.Close()

	respSrv := resp.New(backend)
	respSrv.SetLogf(nil)
	respLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go respSrv.Serve(respLn)
	defer respSrv.Close()

	opsSrv := httptest.NewServer(NewMux(Config{Attrib: backend.Attribution}))
	defer opsSrv.Close()

	// Native traffic: puts.
	cl, err := server.Dial(nativeLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	val := make([]byte, 2048)
	for i := 0; i < 16; i++ {
		key := []byte{'k', byte('0' + i%10), byte('a' + i/10)}
		if err := cl.PutContext(ctx, key, 1, val, false); err != nil {
			t.Fatal(err)
		}
	}

	// RESP traffic: gets of the same keys through the other front door.
	rc, err := resp.Dial(respLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < 16; i++ {
		key := string([]byte{'k', byte('0' + i%10), byte('a' + i/10)})
		reply, err := rc.Do("GET", key)
		if err != nil {
			t.Fatal(err)
		}
		if reply.IsNil() || len(reply.Bulk) != len(val) {
			t.Fatalf("RESP GET %q = %+v, want the native put's value", key, reply)
		}
	}

	// One table, both wires.
	code, body, _ := get(t, opsSrv, "/debug/attrib?format=json")
	if code != 200 {
		t.Fatalf("/debug/attrib = %d: %s", code, body)
	}
	var snap metrics.AttribSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad json: %v\n%s", err, body)
	}
	byOp := make(map[string]metrics.AttribEntry)
	for _, e := range snap.Entries {
		byOp[e.Op] = e
	}
	putE, ok := byOp["put"]
	if !ok || putE.Samples < 16 {
		t.Fatalf("native put traffic missing from table: %+v", snap.Entries)
	}
	getE, ok := byOp["get"]
	if !ok || getE.Samples < 16 {
		t.Fatalf("RESP get traffic missing from table: %+v", snap.Entries)
	}
	if putE.AllocBytesPerOp <= 0 || getE.AllocBytesPerOp <= 0 {
		t.Fatalf("alloc bytes/op not attributed: put=%+v get=%+v", putE, getE)
	}
	// The text form renders the same table.
	code, text, _ := get(t, opsSrv, "/debug/attrib")
	if code != 200 || !strings.Contains(text, "put") || !strings.Contains(text, "get") {
		t.Fatalf("text form = %d:\n%s", code, text)
	}
}

// TestProfileCaptureFleet drives metrics.ProfileCapture against two
// real ops servers — the path `qindbctl profile -nodes` takes — and
// checks one valid windowed pprof delta lands per node.
func TestProfileCaptureFleet(t *testing.T) {
	var endpoints []string
	for i := 0; i < 2; i++ {
		s, err := Listen("127.0.0.1:0", Config{EnablePprof: true})
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve()
		t.Cleanup(func() {
			s.Shutdown(context.Background())
		})
		endpoints = append(endpoints, s.Addr())
	}

	dir := t.TempDir()
	pc := &metrics.ProfileCapture{Endpoints: endpoints, Type: "allocs", Seconds: 1}
	results, err := pc.CaptureTo(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Endpoint, r.Err)
		}
		fi, err := os.Stat(r.Path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 || fi.Size() != r.Bytes {
			t.Fatalf("%s: size %d vs reported %d", r.Path, fi.Size(), r.Bytes)
		}
		if !strings.HasSuffix(r.Path, ".allocs.pprof") {
			t.Fatalf("unexpected capture filename %q", r.Path)
		}
	}
}
