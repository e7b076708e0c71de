package resp

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"directload/internal/aof"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/server"
)

// Server is the RESP front door: a TCP listener that executes Redis
// commands against a shared server.Backend, one goroutine per
// connection, commands on one connection strictly in order (pipelined
// bursts are parsed ahead and replies coalesce into one write, so
// in-order does not mean one round trip per command).
type Server struct {
	backend *server.Backend

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
	logf   func(format string, args ...any)
	node   string
}

// New builds a RESP listener over an execution backend — typically the
// same Backend the native binary listener serves, which is what makes
// the two protocols one system rather than two stores.
func New(b *server.Backend) *Server {
	return &Server{
		backend: b,
		conns:   make(map[net.Conn]bool),
		logf:    log.Printf,
		node:    "qindb",
	}
}

// SetLogf replaces the server's logger (nil silences it).
func (s *Server) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// SetNode names this node in INFO's Server section (default "qindb").
func (s *Server) SetNode(name string) {
	if name != "" {
		s.node = name
	}
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("resp: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = true
		s.mu.Unlock()
		go s.handle(nc)
	}
}

// ListenAndServe listens on addr ("host:port", port 0 for ephemeral)
// and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting and tears down open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// queuedCmd is one command buffered between MULTI and EXEC.
type queuedCmd struct {
	name string
	args [][]byte
}

// conn is the per-connection state: the parser, the reply encoder, the
// SELECTed engine version and the MULTI queue.
type conn struct {
	srv *Server
	nc  net.Conn
	r   *Reader
	w   *Writer

	version uint64 // engine version commands address (SELECT; default 1)
	multi   bool
	aborted bool // a queue-time error poisons the transaction
	queue   []queuedCmd
	closing bool // QUIT: flush the +OK, then drop the connection
}

// VersionForDB maps a Redis database index onto the engine data version
// RESP commands address: index n → version n+1, so the default database
// 0 lands on the repo's conventional first version 1.
func VersionForDB(index int) uint64 {
	return uint64(index) + 1
}

// Read-burst dispatch. A pipelined run of consecutive GETs has no
// ordering constraints among its members — they are pure reads with no
// intervening write — so the handler executes them concurrently (like
// the native listener's -max-inflight window) and writes the replies
// back in command order. The burst ends at the first non-GET command,
// which preserves read-your-writes across the pipeline.
const (
	// maxReadBurst caps how many consecutive GETs one burst gathers.
	maxReadBurst = 256
	// getBurstWorkers bounds the concurrent engine reads per burst.
	getBurstWorkers = 8
)

// handle serves one connection until EOF, QUIT, or a protocol error.
func (s *Server) handle(nc net.Conn) {
	s.backend.ConnOpened()
	defer s.backend.ConnClosed()
	defer s.dropConn(nc)
	c := &conn{srv: s, nc: nc, r: NewReader(nc), w: NewWriter(nc), version: VersionForDB(0)}
	ctx := context.Background()
	protoErr := func(err error) {
		if errors.Is(err, ErrProtocol) {
			// Tell the client why before abandoning the stream.
			c.w.WriteError(ClassErr, err.Error())
			c.w.Flush()
		}
	}
	var pending [][]byte // command read ahead by a burst, not yet run
	for {
		var args [][]byte
		if pending != nil {
			args, pending = pending, nil
		} else {
			var err error
			args, err = c.r.ReadCommand()
			if err != nil {
				protoErr(err)
				return
			}
			if len(args) == 0 {
				continue // blank inline line
			}
		}
		if !c.multi && isPlainGet(args) && c.r.Buffered() > 0 {
			keys := [][]byte{args[1]}
			var readErr error
			for c.r.Buffered() > 0 && len(keys) < maxReadBurst {
				next, err := c.r.ReadCommand()
				if err != nil {
					readErr = err
					break
				}
				if len(next) == 0 {
					continue
				}
				if !isPlainGet(next) {
					pending = next
					break
				}
				keys = append(keys, next[1])
			}
			c.runGetBurst(ctx, keys)
			if readErr != nil {
				protoErr(readErr)
				return
			}
		} else {
			c.dispatch(ctx, args)
		}
		// Flush only once the pipeline drains: a burst of N commands
		// answers with one write, not N.
		if c.r.Buffered() == 0 && pending == nil {
			if err := c.w.Flush(); err != nil {
				return
			}
			if c.closing {
				return
			}
		}
	}
}

// isPlainGet reports whether args is a well-formed GET — the only
// command eligible for concurrent read-burst dispatch.
func isPlainGet(args [][]byte) bool {
	return len(args) == 2 && len(args[0]) == 3 &&
		(args[0][0] == 'G' || args[0][0] == 'g') &&
		(args[0][1] == 'E' || args[0][1] == 'e') &&
		(args[0][2] == 'T' || args[0][2] == 't')
}

// runGetBurst executes a run of consecutive pipelined GETs, fanning the
// engine reads across a bounded worker pool and writing replies in
// command order. Every read still passes through Backend.Get, so the
// per-op metrics, read SLO and slowlog see burst traffic exactly like
// serial traffic.
func (c *conn) runGetBurst(ctx context.Context, keys [][]byte) {
	if len(keys) == 1 {
		val, err := c.srv.backend.Get(ctx, keys[0], c.version)
		c.writeGetReply(val, err)
		return
	}
	type result struct {
		val []byte
		err error
	}
	results := make([]result, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(len(keys), getBurstWorkers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				results[i].val, results[i].err = c.srv.backend.Get(ctx, keys[i], c.version)
			}
		}()
	}
	wg.Wait()
	for _, r := range results {
		c.writeGetReply(r.val, r.err)
	}
}

// dispatch routes one command, honoring MULTI queueing.
func (c *conn) dispatch(ctx context.Context, args [][]byte) {
	name := strings.ToUpper(string(args[0]))
	if c.multi {
		switch name {
		case "MULTI":
			c.w.WriteError(ClassErr, "MULTI calls can not be nested")
		case "EXEC":
			c.exec(ctx)
		case "DISCARD":
			c.resetMulti()
			c.w.WriteSimple("OK")
		case "QUIT":
			c.w.WriteSimple("OK")
			c.closing = true
		default:
			if err := validateQueued(name, args); err != nil {
				c.aborted = true
				c.w.WriteError(ClassErr, err.Error())
				return
			}
			c.queue = append(c.queue, queuedCmd{name: name, args: args})
			c.w.WriteSimple("QUEUED")
		}
		return
	}
	switch name {
	case "MULTI":
		c.multi = true
		c.w.WriteSimple("OK")
	case "EXEC":
		c.w.WriteError(ClassErr, "EXEC without MULTI")
	case "DISCARD":
		c.w.WriteError(ClassErr, "DISCARD without MULTI")
	case "QUIT":
		c.w.WriteSimple("OK")
		c.closing = true
	default:
		c.run(ctx, name, args)
	}
}

// resetMulti leaves transaction mode and drops the queue.
func (c *conn) resetMulti() {
	c.multi = false
	c.aborted = false
	c.queue = nil
}

// wrongArity is the canonical Redis arity complaint.
func wrongArity(name string) error {
	return fmt.Errorf("wrong number of arguments for '%s' command", strings.ToLower(name))
}

// validateQueued vets one command at MULTI queue time. Everything that
// can be rejected without touching the engine is rejected here, which
// is what makes a failing EXEC atomic: a transaction with any invalid
// command aborts as a whole before a single sub-op reaches the engine.
func validateQueued(name string, args [][]byte) error {
	switch name {
	case "GET", "SET", "DEL", "MGET", "MSET", "EXISTS", "PING", "ECHO", "INFO", "DBSIZE", "COMMAND":
		return validateArity(name, args)
	case "SELECT":
		return errors.New("SELECT inside MULTI is not supported")
	}
	return fmt.Errorf("unknown command '%s'", strings.ToLower(name))
}

// validateArity vets argument counts and protocol-level size limits.
func validateArity(name string, args [][]byte) error {
	switch name {
	case "GET", "ECHO", "SELECT":
		if len(args) != 2 {
			return wrongArity(name)
		}
	case "SET":
		if len(args) != 3 {
			return wrongArity(name)
		}
	case "DEL", "MGET", "EXISTS":
		if len(args) < 2 {
			return wrongArity(name)
		}
	case "MSET":
		if len(args) < 3 || len(args)%2 != 1 {
			return wrongArity(name)
		}
	case "PING", "INFO":
		if len(args) > 2 {
			return wrongArity(name)
		}
	case "DBSIZE":
		if len(args) != 1 {
			return wrongArity(name)
		}
	}
	for _, a := range args[1:] {
		if len(a) > aof.MaxKeyLen && name != "SET" && name != "MSET" && name != "ECHO" {
			return fmt.Errorf("key exceeds %d bytes", aof.MaxKeyLen)
		}
	}
	if name == "SET" || name == "MSET" {
		for i := 1; i < len(args); i += 2 {
			if len(args[i]) > aof.MaxKeyLen {
				return fmt.Errorf("key exceeds %d bytes", aof.MaxKeyLen)
			}
		}
	}
	return nil
}

// run executes one non-transactional command and writes its reply.
func (c *conn) run(ctx context.Context, name string, args [][]byte) {
	if err := validateArity(name, args); err != nil {
		c.w.WriteError(ClassErr, err.Error())
		return
	}
	b := c.srv.backend
	switch name {
	case "PING":
		if len(args) == 2 {
			c.w.WriteBulk(args[1])
			return
		}
		b.Ping(ctx)
		c.w.WriteSimple("PONG")
	case "ECHO":
		c.w.WriteBulk(args[1])
	case "GET":
		val, err := b.Get(ctx, args[1], c.version)
		c.writeGetReply(val, err)
	case "SET":
		if err := b.Put(ctx, args[1], c.version, args[2], false); err != nil {
			c.w.WriteError(classify(err), err.Error())
			return
		}
		c.w.WriteSimple("OK")
	case "DEL":
		removed := 0
		for _, key := range args[1:] {
			err := b.Del(ctx, key, c.version)
			switch {
			case err == nil:
				removed++
			case errors.Is(err, core.ErrNotFound), errors.Is(err, core.ErrDeleted):
				// Absent keys are not an error for DEL.
			default:
				c.w.WriteError(classify(err), err.Error())
				return
			}
		}
		c.w.WriteInt(int64(removed))
	case "EXISTS":
		n := 0
		for _, key := range args[1:] {
			if ok, _ := b.Has(ctx, key, c.version); ok {
				n++
			}
		}
		c.w.WriteInt(int64(n))
	case "MGET":
		c.w.WriteArrayHeader(len(args) - 1)
		for _, key := range args[1:] {
			val, err := b.Get(ctx, key, c.version)
			if err != nil {
				c.w.WriteNil()
				continue
			}
			c.w.WriteBulk(val)
		}
	case "MSET":
		ops := make([]server.BatchOp, 0, (len(args)-1)/2)
		for i := 1; i+1 < len(args); i += 2 {
			ops = append(ops, server.BatchOp{Op: server.OpPut, Version: c.version, Key: args[i], Value: args[i+1]})
		}
		// MSET is atomic in Redis; commit it the way EXEC does.
		if _, err := b.AtomicBatch(ctx, ops); err != nil {
			c.w.WriteError(classify(err), err.Error())
			return
		}
		c.w.WriteSimple("OK")
	case "SELECT":
		idx, err := strconv.Atoi(string(args[1]))
		if err != nil || idx < 0 {
			c.w.WriteError(ClassErr, "invalid DB index")
			return
		}
		c.version = VersionForDB(idx)
		c.w.WriteSimple("OK")
	case "DBSIZE":
		c.w.WriteInt(int64(b.KeyCount(c.version)))
	case "INFO":
		section := ""
		if len(args) == 2 {
			section = strings.ToLower(string(args[1]))
		}
		c.w.WriteBulk(c.info(ctx, section))
	case "COMMAND":
		// redis-cli probes COMMAND DOCS on connect; an empty array
		// keeps it (and most client libraries) happy.
		c.w.WriteArrayHeader(0)
	default:
		c.w.WriteError(ClassErr, fmt.Sprintf("unknown command '%s'", strings.ToLower(name)))
	}
}

// writeGetReply encodes a Get outcome: missing and deleted keys answer
// the canonical nil bulk, every other failure is an error reply.
func (c *conn) writeGetReply(val []byte, err error) {
	switch {
	case err == nil:
		c.w.WriteBulk(val)
	case errors.Is(err, core.ErrNotFound), errors.Is(err, core.ErrDeleted):
		c.w.WriteNil()
	default:
		c.w.WriteError(classify(err), err.Error())
	}
}

// exec commits the MULTI queue. All mutations across the queue become
// ONE OpBatch committed through Backend.AtomicBatch — the same code
// path, server.req.batch metrics and trace shape as a native batch
// frame — and the per-command replies are reconstructed from the batch
// results. Reads execute after the commit, so a transaction's reads
// observe its own writes wherever they appear in the queue. A
// validation failure (or any queue-time error) aborts the whole
// transaction before a single sub-op reaches the engine.
func (c *conn) exec(ctx context.Context) {
	queue := c.queue
	aborted := c.aborted
	c.resetMulti()
	if aborted {
		c.w.WriteError(ClassExecAbort, "Transaction discarded because of previous errors.")
		return
	}
	// First pass: gather every mutation into one batch, remembering
	// which sub-op range answers which queued command.
	type slot struct{ start, n int }
	slots := make([]slot, len(queue))
	var ops []server.BatchOp
	for i, cmd := range queue {
		slots[i] = slot{start: -1}
		switch cmd.name {
		case "SET":
			slots[i] = slot{start: len(ops), n: 1}
			ops = append(ops, server.BatchOp{Op: server.OpPut, Version: c.version, Key: cmd.args[1], Value: cmd.args[2]})
		case "DEL":
			slots[i] = slot{start: len(ops), n: len(cmd.args) - 1}
			for _, key := range cmd.args[1:] {
				ops = append(ops, server.BatchOp{Op: server.OpDel, Version: c.version, Key: key})
			}
		case "MSET":
			n := 0
			for j := 1; j+1 < len(cmd.args); j += 2 {
				ops = append(ops, server.BatchOp{Op: server.OpPut, Version: c.version, Key: cmd.args[j], Value: cmd.args[j+1]})
				n++
			}
			slots[i] = slot{start: len(ops) - n, n: n}
		}
	}
	var results []server.BatchResult
	if len(ops) > 0 {
		var err error
		results, err = c.srv.backend.AtomicBatch(ctx, ops)
		if results == nil && err != nil {
			// Validation rejected the batch: nothing was applied.
			c.w.WriteError(ClassExecAbort, "Transaction discarded: "+err.Error())
			return
		}
	}
	// Second pass: one reply per queued command, in queue order.
	c.w.WriteArrayHeader(len(queue))
	for i, cmd := range queue {
		if slots[i].start < 0 {
			c.run(ctx, cmd.name, cmd.args)
			continue
		}
		c.writeBatchedReply(cmd, results[slots[i].start:slots[i].start+slots[i].n])
	}
}

// writeBatchedReply reconstructs one queued mutation's reply from its
// slice of batch results.
func (c *conn) writeBatchedReply(cmd queuedCmd, results []server.BatchResult) {
	switch cmd.name {
	case "SET", "MSET":
		for _, r := range results {
			if r.Err != nil {
				c.w.WriteError(classify(r.Err), r.Err.Error())
				return
			}
		}
		c.w.WriteSimple("OK")
	case "DEL":
		removed := 0
		for _, r := range results {
			switch {
			case r.Err == nil:
				removed++
			case errors.Is(r.Err, core.ErrNotFound), errors.Is(r.Err, core.ErrDeleted):
				// Absent keys are not an error for DEL.
			default:
				c.w.WriteError(classify(r.Err), r.Err.Error())
				return
			}
		}
		c.w.WriteInt(int64(removed))
	}
}

// info renders the INFO reply from the shared metrics registry and the
// engine's stats — the RESP view of the same numbers /metrics and
// OpMetrics serve. An empty section selects every section.
func (c *conn) info(ctx context.Context, section string) []byte {
	b := c.srv.backend
	var sb strings.Builder
	want := func(name string) bool { return section == "" || section == name }
	if want("server") {
		sb.WriteString("# Server\r\n")
		fmt.Fprintf(&sb, "node:%s\r\nprotocol:resp2\r\nengine:qindb\r\n\r\n", c.srv.node)
	}
	if want("clients") {
		st, err := b.Stats(ctx)
		if err == nil {
			sb.WriteString("# Clients\r\n")
			fmt.Fprintf(&sb, "connected_clients:%d\r\n\r\n", st.Conns)
		}
	}
	if want("stats") {
		sb.WriteString("# Stats\r\n")
		snap := b.MetricsSnapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			field := strings.ReplaceAll(name, ".", "_")
			switch v := snap[name].(type) {
			case int64:
				fmt.Fprintf(&sb, "%s:%d\r\n", field, v)
			case float64:
				fmt.Fprintf(&sb, "%s:%s\r\n", field, strconv.FormatFloat(v, 'g', -1, 64))
			case metrics.Snapshot:
				fmt.Fprintf(&sb, "%s_count:%d\r\n", field, v.Count)
			}
		}
		sb.WriteString("\r\n")
	}
	if want("keyspace") {
		sb.WriteString("# Keyspace\r\n")
		for _, v := range b.Versions() {
			if v == 0 {
				continue
			}
			fmt.Fprintf(&sb, "db%d:keys=%d,engine_version=%d\r\n", v-1, b.KeyCount(v), v)
		}
	}
	return []byte(sb.String())
}
