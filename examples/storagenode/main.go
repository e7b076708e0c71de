// Command storagenode runs a QinDB storage node over TCP in-process and
// talks to it through the client — the wire-level view of a single Mint
// node serving deduplicated index data. It demonstrates the wire
// protocol's surface (context-aware calls, batched publishes, pipelined reads) and
// the operator surface: metrics, distributed tracing across the wire,
// and the /healthz–/readyz–/debug endpoints.
//
//	go run ./examples/storagenode
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"directload"
)

func main() {
	// One registry instruments everything: the engine, the server, the
	// client pool — and, via the ops server, exposes it all over HTTP.
	reg := directload.NewMetricsRegistry()
	slow := directload.NewSlowLog(0, 5*time.Millisecond)

	// The node: a QinDB engine behind a TCP listener.
	opts := directload.DefaultStoreOptions()
	opts.Metrics = reg
	db, err := directload.OpenStore(256<<20, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	node := directload.NewNode(db)
	node.SetMetrics(reg)
	node.SetSlowLog(slow)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go node.Serve(ln)
	defer node.Close()
	fmt.Printf("storage node listening on %s\n", ln.Addr())

	// Operator endpoints: /metrics (?format=prom for scrapers),
	// /healthz, /readyz, /debug/trace, /debug/slowlog.
	opsSrv, err := directload.ListenOps("127.0.0.1:0", directload.OpsConfig{
		Registry: reg,
		SlowLog:  slow,
		Ready: func() error {
			if h := db.Health(); h.Closed || h.UnderPressure {
				return fmt.Errorf("engine not serving")
			}
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	go opsSrv.Serve()
	fmt.Printf("operator endpoints on http://%s/metrics\n", opsSrv.Addr())

	// Dialing performs no handshake: calls pipeline from the first
	// frame, and a call whose context carries a span ships it in the
	// request. WithDialTimeout bounds every call whose context carries
	// no deadline.
	cl, err := directload.DialNode(ln.Addr().String(),
		directload.WithDialTimeout(2*time.Second),
		directload.WithDialMetrics(reg))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Publish version 1 as one traced batch: a single OpBatch round
	// trip instead of one per record, and — because the context carries
	// a span — one end-to-end timeline at /debug/trace covering the
	// client flush, the server handler, and each engine write.
	pubCtx, endPublish := reg.StartSpan(ctx, "example.publish")
	batch := cl.Batcher()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("url/page-%02d", i)
		value := fmt.Sprintf("content of page %d", i)
		if err := batch.Put(pubCtx, []byte(key), 1, []byte(value), false); err != nil {
			log.Fatal(err)
		}
	}
	err = batch.Flush(pubCtx)
	endPublish(err)
	if err != nil {
		log.Fatal(err)
	}
	if sc, ok := directload.SpanFromContext(pubCtx); ok {
		fmt.Printf("published v1 under trace %016x:\n", sc.TraceID)
		reg.Tracer().WriteTrace(os.Stdout, sc.TraceID)
	}

	// Version 2 arrives deduplicated for page-00 (unchanged content).
	if err := cl.PutContext(ctx, []byte("url/page-00"), 2, nil, true); err != nil {
		log.Fatal(err)
	}
	val, err := cl.GetContext(ctx, []byte("url/page-00"), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET url/page-00 @v2 -> %q (traceback server-side)\n", val)

	// Pipelined reads: all five gets share the wire and complete
	// concurrently on the server.
	p := cl.Pipeline()
	var futures []*directload.NodeFuture
	for i := 0; i < 5; i++ {
		futures = append(futures, p.Get(ctx, []byte(fmt.Sprintf("url/page-%02d", i)), 1))
	}
	if err := directload.WaitFutures(futures...); err != nil {
		log.Fatal(err)
	}
	fmt.Println("pipelined gets:")
	for i, f := range futures {
		v, _ := f.Value()
		fmt.Printf("  url/page-%02d @v1 -> %d bytes\n", i, len(v))
	}

	// Range with the server's default limit; the reply reports the
	// limit that applied so callers can detect truncation.
	entries, applied, err := cl.RangeContext(ctx, []byte("url/page-01"), []byte("url/page-04"), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range scan over the wire (server limit %d):\n", applied)
	for _, e := range entries {
		fmt.Printf("  %s @v%d\n", e.Key, e.Version)
	}

	st, err := cl.StatsContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node stats: %d puts, %d gets, %d bytes written, %d conns\n",
		st.Engine.Puts, st.Engine.Gets, st.Engine.UserWriteBytes, st.Conns)

	// Drain the operator HTTP server under a deadline; a shutdown error
	// (a stuck scrape, a dead listener) is worth reporting, not
	// discarding.
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := opsSrv.Shutdown(shutCtx); err != nil {
		log.Printf("ops server shutdown: %v", err)
	}
}
