// Package core implements QinDB (Quick-Indexing Database), the paper's
// primary contribution (§2.3): the per-storage-node key-value engine that
// replaces an LSM-tree with a memory-resident sorted table (memtable) of
// keys plus append-only files (AOFs) on SSD holding the values.
//
// Keys are versioned: every entry is addressed as (key, version), written
// as k/t in the paper. The engine mutates the classical GET/PUT/DEL
// operations so they work over deduplicated data (paper Fig. 2):
//
//   - PUT(k/t, v|NULL) appends the record to the AOF tail and inserts a
//     skip-list item carrying the AOF offset, a flag r ("the value field
//     was removed by deduplication") and a flag d ("deleted").
//   - GET(k/t) looks up the skip list; when r is set it traces back to
//     older versions of k until a record with a real value is found.
//   - DEL(k/t) only sets d and updates the GC table's occupancy ratio;
//     space is reclaimed later by the lazy garbage collector.
//
// Sorting happens exclusively in memory, so the only software write
// amplification left is the GC's re-append of still-referenced records.
// Stored on a block-aligned filesystem (blockfs.NativeFS), the engine
// also has zero hardware write amplification.
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/metrics"
	"directload/internal/skiplist"
)

// Engine errors.
var (
	ErrNotFound     = errors.New("qindb: not found")
	ErrDeleted      = errors.New("qindb: deleted")
	ErrBrokenChain  = errors.New("qindb: dedup chain has no base value")
	ErrClosed       = errors.New("qindb: closed")
	ErrEmptyKey     = errors.New("qindb: empty key")
	ErrKeyTooLong   = errors.New("qindb: key exceeds limit")
	ErrValueTooBig  = errors.New("qindb: value exceeds limit")
	ErrDedupNoPrior = errors.New("qindb: dedup put without any prior version")
)

// item flags in the memtable.
const (
	fDedup         uint8 = 1 << iota // r: value removed by deduplication
	fDeleted                         // d: logically deleted
	fOnDiskDeleted                   // the flash record already carries FlagDropped
	fHasBase                         // dedup item with a resolved traceback base
)

// ikey is the composite memtable key: primary order is the user key
// ascending; secondary order is the version DESCENDING, so the newest
// version of a key is encountered first and traceback to older versions
// is a short forward walk.
type ikey struct {
	key string
	ver uint64
}

func ikeyCompare(a, b ikey) int {
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c
	}
	// Descending version order.
	switch {
	case a.ver > b.ver:
		return -1
	case a.ver < b.ver:
		return 1
	default:
		return 0
	}
}

// item is the memtable payload: where the record lives on flash plus the
// r/d flags of paper Fig. 2. For deduplicated entries, base is the older
// version whose value this entry shares. The binding is resolved once, at
// PUT time (the walk down the skip list to the first older version that
// still carries a value), so a GET is a single extra skip-list lookup and
// the result can never change under garbage collection.
type item struct {
	ref   aof.Ref
	base  uint64 // valid when fHasBase is set
	flags uint8
}

func (it item) has(f uint8) bool { return it.flags&f != 0 }

// Options configures a DB.
type Options struct {
	// AOF holds the append-only file store configuration (file size,
	// GC threshold, free-space pressure override).
	AOF aof.Config
	// MaxValueSize bounds a single value (0 = 64 MiB default).
	MaxValueSize int
	// DisableAutoGC turns off the GC attempt piggybacked on Del and
	// DropVersion; the caller then drives GC via MaybeGC/CollectOnce.
	DisableAutoGC bool
	// CheckpointEveryBytes writes a memtable checkpoint automatically
	// once that many bytes have been appended since the last one
	// (paper §2.1: the memtable "is checkpointed periodically"). Zero
	// disables automatic checkpoints; Checkpoint() always works.
	CheckpointEveryBytes int64
	// Seed makes skip-list level choices deterministic.
	Seed int64
	// Metrics, when non-nil, receives the engine's `qindb.*` metrics and
	// is propagated to the AOF store (`aof.*`). GC cycles, checkpoints
	// and recovery record spans on the registry's tracer. Nil keeps all
	// hot paths allocation-free.
	Metrics *metrics.Registry
}

// DefaultOptions mirrors the paper's configuration: 64 MB AOFs and a
// 25 % occupancy GC threshold.
func DefaultOptions() Options {
	return Options{AOF: aof.DefaultConfig(), MaxValueSize: 64 << 20, Seed: 1}
}

// Stats aggregates engine counters for the experiments.
type Stats struct {
	Keys           int   // memtable items (all versions)
	UserWriteBytes int64 // application payload bytes accepted by Put/Del
	UserReadBytes  int64 // value bytes returned by Get
	Puts           int64
	Gets           int64
	Dels           int64
	Tracebacks     int64 // GETs that had to follow the dedup chain
	Checkpoints    int64 // memtable checkpoints written
	Store          aof.Stats
}

// DB is a QinDB instance over one (simulated) SSD.
type DB struct {
	mu    sync.RWMutex
	table *skiplist.List[ikey, item]
	store *aof.Store
	opts  Options
	fs    blockfs.FS

	closed         bool
	memBytes       int64 // approximate memtable footprint (key bytes + overhead)
	userWriteBytes int64
	userReadBytes  int64
	puts, gets     int64
	dels           int64
	tracebacks     int64
	versions       map[uint64]int // live item count per version
	maxSeq         uint64         // highest sequence replayed or appended
	sinceCkpt      int64          // bytes appended since the last checkpoint
	checkpoints    int64

	reg *metrics.Registry
	met engineMetrics
}

// memItemOverhead approximates the per-item memtable footprint beyond
// the key bytes (skip-list node, item struct, version map share).
const memItemOverhead = 64

// engineMetrics holds the engine's registry handles; all nil without a
// registry, and the metric types' nil-receiver no-ops make every record
// site a guarded no-op in that case.
type engineMetrics struct {
	putLat      *metrics.Histogram
	getLat      *metrics.Histogram
	delLat      *metrics.Histogram
	putBytes    *metrics.Counter
	dedupPuts   *metrics.Counter
	tracebacks  *metrics.Counter
	memBytes    *metrics.Gauge
	gcReclaimed *metrics.Counter
}

func newEngineMetrics(reg *metrics.Registry) engineMetrics {
	return engineMetrics{
		putLat:      reg.Histogram("qindb.put.latency_us"),
		getLat:      reg.Histogram("qindb.get.latency_us"),
		delLat:      reg.Histogram("qindb.del.latency_us"),
		putBytes:    reg.Counter("qindb.put.bytes"),
		dedupPuts:   reg.Counter("qindb.put.dedup"),
		tracebacks:  reg.Counter("qindb.get.tracebacks"),
		memBytes:    reg.Gauge("qindb.memtable.bytes"),
		gcReclaimed: reg.Counter("qindb.gc.reclaimed_bytes"),
	}
}

// Open creates or recovers a DB over fs. If the filesystem already
// contains AOFs (and optionally a checkpoint), the memtable and GC table
// are rebuilt from them — the recovery path of paper §2.3.
func Open(fs blockfs.FS, opts Options) (*DB, error) {
	if opts.AOF.FileSize == 0 {
		opts.AOF = aof.DefaultConfig()
	}
	if opts.MaxValueSize == 0 {
		opts.MaxValueSize = 64 << 20
	}
	if opts.AOF.Metrics == nil {
		opts.AOF.Metrics = opts.Metrics
	}
	store, err := aof.Open(fs, opts.AOF)
	if err != nil {
		return nil, err
	}
	db := &DB{
		table:    skiplist.New[ikey, item](ikeyCompare, opts.Seed),
		store:    store,
		opts:     opts,
		fs:       fs,
		versions: make(map[uint64]int),
		reg:      opts.Metrics,
		met:      newEngineMetrics(opts.Metrics),
	}
	endRecover := db.reg.Span("qindb.recovery")
	err = db.recover()
	endRecover(err)
	if err != nil {
		return nil, fmt.Errorf("qindb: recovery: %w", err)
	}
	// Seed the memtable footprint with whatever recovery rebuilt.
	db.table.AscendAll(func(k ikey, v item) bool {
		db.memBytes += int64(len(k.key)) + memItemOverhead
		return true
	})
	db.registerDerivedMetrics()
	return db, nil
}

// HealthReport is a point-in-time engine readiness snapshot — the
// inputs of an operator's /readyz decision.
type HealthReport struct {
	Closed        bool  `json:"closed"`
	MemtableBytes int64 `json:"memtable_bytes"`
	// UnderPressure reports the AOF device near capacity even after GC
	// has had its chance — writes may soon start failing.
	UnderPressure bool `json:"under_pressure"`
}

// Health returns the engine's readiness snapshot. Usable (and cheap)
// with or without a metrics registry.
func (db *DB) Health() HealthReport {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return HealthReport{
		Closed:        db.closed,
		MemtableBytes: db.memBytes,
		UnderPressure: db.store.UnderPressure(),
	}
}

// registerDerivedMetrics publishes the computed gauges the experiments
// report: memtable size and the software write-amplification ratio
// (AOF bytes physically appended — including GC re-appends — over user
// payload bytes accepted; the paper's "up to 2.5x" metric). A no-op
// without a registry.
func (db *DB) registerDerivedMetrics() {
	if db.reg == nil {
		return
	}
	db.met.memBytes.Set(db.memBytes)
	db.reg.GaugeFunc("qindb.memtable.items", func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(db.table.Len())
	})
	db.reg.GaugeFunc("qindb.software_wa", func() float64 {
		db.mu.RLock()
		user := db.userWriteBytes
		db.mu.RUnlock()
		if user == 0 {
			return 0
		}
		return float64(db.store.Stats().AppendedBytes) / float64(user)
	})
}

// Close seals the active AOF. The DB must not be used afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	db.closed = true
	return db.store.Close()
}

// checkKey rejects keys a record cannot hold: empty ones, and ones
// longer than the AOF's keyLen field.
func checkKey(key []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > aof.MaxKeyLen {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLong, len(key))
	}
	return nil
}

// Put stores value under (key, version). A nil/empty value with
// dedup=true records a deduplicated entry whose real payload lives in an
// older version (Bifrost stripped it before transmission); the traceback
// base is resolved now and persisted inside the record, so recovery and
// GC reproduce exactly this binding. Put returns the simulated device
// cost of the operation.
func (db *DB) Put(key []byte, version uint64, value []byte, dedup bool) (time.Duration, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	if len(value) > db.opts.MaxValueSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrValueTooBig, len(value))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	rec := aof.Record{Key: key, Version: version, Value: value}
	var flags uint8
	var base uint64
	if dedup {
		rec.Flags |= aof.FlagDedup
		rec.Value = nil
		flags = fDedup
		if b, ok := db.resolveBaseLocked(string(key), version); ok {
			base = b
			flags |= fHasBase
			rec.Value = encodeBase(b)
		}
	}
	ref, seq, cost, err := db.store.Append(rec)
	if err != nil {
		return cost, err
	}
	db.noteSeq(seq)
	ik := ikey{string(key), version}
	if old, ok := db.table.Get(ik); ok {
		// Re-PUT of the same (k, t): the previous record is dead.
		db.store.MarkDead(old.ref)
		db.table.Update(ik, func(item) item { return item{ref: ref, base: base, flags: flags} })
		if old.has(fDeleted) {
			db.versions[version]++ // revived
		}
	} else {
		db.table.Set(ik, item{ref: ref, base: base, flags: flags})
		db.versions[version]++
		db.memBytes += int64(len(key)) + memItemOverhead
		db.met.memBytes.Add(int64(len(key)) + memItemOverhead)
	}
	db.userWriteBytes += int64(len(key) + len(value))
	db.puts++
	db.met.putBytes.Add(int64(len(key) + len(value)))
	if dedup {
		db.met.dedupPuts.Inc()
	}
	db.sinceCkpt += int64(len(key) + len(value))
	// Space-pressure override of the lazy GC policy (paper §4.1.2): when
	// free flash drops below the configured floor, collect the emptiest
	// sealed files immediately, threshold notwithstanding.
	c, err := db.pressureGCLocked()
	cost += c
	if err != nil {
		return cost, err
	}
	c, err = db.maybeCheckpointLocked()
	cost += c
	if err == nil {
		db.met.putLat.Observe(float64(cost) / float64(time.Microsecond))
	}
	return cost, err
}

// pressureGCLocked collects files while the store reports free-space
// pressure. Runs with db.mu held. Bounded by the file count so a store
// of fully-live files cannot loop.
func (db *DB) pressureGCLocked() (time.Duration, error) {
	var total time.Duration
	for attempts := len(db.store.Files()); attempts > 0 && db.store.UnderPressure(); attempts-- {
		id, ok := db.store.PressureCandidate()
		if !ok {
			break
		}
		end := db.reg.Span("gc.cycle")
		reclaimed, cost, err := db.store.CollectFile(id, db.gcJudge, db.gcRelocated)
		end(err)
		db.met.gcReclaimed.Add(reclaimed)
		total += cost
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// resolveBaseLocked walks down from just below version to the first older
// entry of key that carries a real value — the traceback of paper Fig. 2,
// performed once at PUT time. Deleted entries are skipped: they may be
// removed by GC at any moment, and skipping them always keeps the binding
// independent of GC timing. A live dedup entry is a shortcut to its own
// base (whose record GC is guaranteed to preserve).
func (db *DB) resolveBaseLocked(key string, version uint64) (uint64, bool) {
	if version == 0 {
		return 0, false
	}
	var base uint64
	found := false
	db.table.Ascend(ikey{key, version - 1}, func(k ikey, v item) bool {
		if k.key != key {
			return false
		}
		if v.has(fDeleted) {
			return true
		}
		if !v.has(fDedup) {
			base, found = k.ver, true
			return false
		}
		if v.has(fHasBase) {
			base, found = v.base, true
			return false
		}
		return true
	})
	return base, found
}

// encodeBase serializes a traceback base version into a dedup record's
// otherwise-unused value field.
func encodeBase(base uint64) []byte {
	buf := make([]byte, 8)
	for i := 0; i < 8; i++ {
		buf[i] = byte(base >> (8 * i))
	}
	return buf
}

// decodeBase parses encodeBase output; ok is false for records written
// without a resolved base.
func decodeBase(value []byte) (uint64, bool) {
	if len(value) != 8 {
		return 0, false
	}
	var base uint64
	for i := 0; i < 8; i++ {
		base |= uint64(value[i]) << (8 * i)
	}
	return base, true
}

// Get returns the value stored under (key, version), following the dedup
// traceback when the entry's value field was removed (paper Fig. 2). The
// returned cost is the simulated device time spent.
func (db *DB) Get(key []byte, version uint64) ([]byte, time.Duration, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, 0, ErrClosed
	}
	ik := ikey{string(key), version}
	it, ok := db.table.Get(ik)
	if !ok {
		db.mu.RUnlock()
		return nil, 0, fmt.Errorf("%w: %q/%d", ErrNotFound, key, version)
	}
	if it.has(fDeleted) {
		db.mu.RUnlock()
		return nil, 0, fmt.Errorf("%w: %q/%d", ErrDeleted, key, version)
	}
	// Resolve the ref to read from: the item itself, or — when r is set —
	// the base entry bound at PUT time.
	ref := it.ref
	traced := false
	if it.has(fDedup) {
		traced = true
		if !it.has(fHasBase) {
			db.mu.RUnlock()
			return nil, 0, fmt.Errorf("%w: %q/%d", ErrBrokenChain, key, version)
		}
		baseItem, ok := db.table.Get(ikey{string(key), it.base})
		if !ok || baseItem.has(fDedup) {
			db.mu.RUnlock()
			return nil, 0, fmt.Errorf("%w: %q/%d (base %d)", ErrBrokenChain, key, version, it.base)
		}
		ref = baseItem.ref
	}
	// The flash read happens under the shared lock: garbage collection
	// takes the exclusive lock, so an in-flight read both blocks GC (the
	// paper's "deferred if there are ongoing reads" rule) and can never
	// observe a ref whose file GC just erased.
	rec, cost, err := db.store.Read(ref)
	db.mu.RUnlock()
	if err != nil {
		return nil, cost, err
	}
	db.mu.Lock()
	db.gets++
	if traced {
		db.tracebacks++
	}
	db.userReadBytes += int64(len(rec.Value))
	db.mu.Unlock()
	if traced {
		db.met.tracebacks.Inc()
	}
	db.met.getLat.Observe(float64(cost) / float64(time.Microsecond))
	return rec.Value, cost, nil
}

// GetLatest returns the newest live (non-deleted) version of key along
// with its version number.
func (db *DB) GetLatest(key []byte) ([]byte, uint64, time.Duration, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, 0, 0, ErrClosed
	}
	var found bool
	var ver uint64
	db.table.Ascend(ikey{string(key), math.MaxUint64}, func(k ikey, v item) bool {
		if k.key != string(key) {
			return false
		}
		if !v.has(fDeleted) {
			ver = k.ver
			found = true
			return false
		}
		return true
	})
	db.mu.RUnlock()
	if !found {
		return nil, 0, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	val, cost, err := db.Get(key, ver)
	return val, ver, cost, err
}

// Del marks (key, version) deleted: the d flag is set in the memtable, a
// small tombstone record is appended so the deletion survives recovery,
// and the GC table occupancy of the record's file is updated (paper
// Fig. 2, DEL steps 1-2). When auto-GC is enabled and the lazy policy
// allows, one GC pass may run (steps 3-6).
func (db *DB) Del(key []byte, version uint64) (time.Duration, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0, ErrClosed
	}
	ik := ikey{string(key), version}
	it, ok := db.table.Get(ik)
	if !ok || it.has(fDeleted) {
		db.mu.Unlock()
		if ok {
			return 0, fmt.Errorf("%w: %q/%d", ErrDeleted, key, version)
		}
		return 0, fmt.Errorf("%w: %q/%d", ErrNotFound, key, version)
	}
	_, seq, cost, err := db.store.Append(aof.Record{
		Key: key, Version: version, Flags: aof.FlagTombstone,
	})
	if err != nil {
		db.mu.Unlock()
		return cost, err
	}
	db.noteSeq(seq)
	db.table.Update(ik, func(v item) item {
		v.flags |= fDeleted
		return v
	})
	db.store.MarkDead(it.ref)
	db.versions[version]--
	if db.versions[version] <= 0 {
		delete(db.versions, version)
	}
	db.userWriteBytes += int64(len(key))
	db.dels++
	auto := !db.opts.DisableAutoGC
	db.mu.Unlock()
	if auto {
		c, _ := db.MaybeGC()
		cost += c
	}
	db.met.delLat.Observe(float64(cost) / float64(time.Microsecond))
	return cost, nil
}

// DropVersion deletes every entry of the given data version — the bulk
// operation the paper's deletion thread performs when a fifth version
// arrives and the oldest must go (§4.1.1). A single meta-record makes
// the drop durable. Values that newer deduplicated versions still refer
// to remain readable until GC decides their fate.
func (db *DB) DropVersion(version uint64) (int, time.Duration, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0, 0, ErrClosed
	}
	_, seq, cost, err := db.store.Append(aof.Record{
		Version: version, Flags: aof.FlagTombstone | aof.FlagVersionDrop,
	})
	if err != nil {
		db.mu.Unlock()
		return 0, cost, err
	}
	db.noteSeq(seq)
	n := db.dropVersionLocked(version)
	auto := !db.opts.DisableAutoGC
	db.mu.Unlock()
	if auto {
		c, _ := db.MaybeGC()
		cost += c
	}
	return n, cost, nil
}

// dropVersionLocked flips d on every live item of the version and
// updates occupancy. Runs with db.mu held.
func (db *DB) dropVersionLocked(version uint64) int {
	type target struct {
		ik  ikey
		ref aof.Ref
	}
	var targets []target
	db.table.AscendAll(func(k ikey, v item) bool {
		if k.ver == version && !v.has(fDeleted) {
			targets = append(targets, target{k, v.ref})
		}
		return true
	})
	for _, tg := range targets {
		db.table.Update(tg.ik, func(v item) item {
			v.flags |= fDeleted
			return v
		})
		db.store.MarkDead(tg.ref)
	}
	delete(db.versions, version)
	return len(targets)
}

// Versions returns the live data versions in ascending order.
func (db *DB) Versions() []uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]uint64, 0, len(db.versions))
	for v := range db.versions {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ { // insertion sort: tiny n (≤4 in prod)
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// KeyCount reports the number of live (non-deleted) keys in version v
// — what a keyspace summary (RESP DBSIZE, INFO Keyspace) serves without
// walking the memtable.
func (db *DB) KeyCount(version uint64) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.versions[version]
}

// RetainVersions drops the oldest versions until at most n remain,
// returning how many versions were dropped. The paper retains at most
// four versions per store (§1.1.2).
func (db *DB) RetainVersions(n int) (int, error) {
	dropped := 0
	for {
		vs := db.Versions()
		if len(vs) <= n {
			return dropped, nil
		}
		if _, _, err := db.DropVersion(vs[0]); err != nil {
			return dropped, err
		}
		dropped++
	}
}

// Range calls fn for every live (non-deleted) newest-version entry whose
// key is in [from, to); an empty "to" means unbounded. This is the range
// scan capability hash-based stores lack (paper §6.1). Values are not
// fetched; use Get for payloads.
func (db *DB) Range(from, to []byte, fn func(key []byte, version uint64) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	last := ""
	first := true
	db.table.Ascend(ikey{string(from), math.MaxUint64}, func(k ikey, v item) bool {
		if len(to) > 0 && k.key >= string(to) {
			return false
		}
		if !first && k.key == last {
			return true // older version of a key we already emitted/skipped
		}
		first = false
		last = k.key
		if v.has(fDeleted) {
			return true
		}
		return fn([]byte(k.key), k.ver)
	})
}

// Has reports whether (key, version) exists and is not deleted.
func (db *DB) Has(key []byte, version uint64) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	it, ok := db.table.Get(ikey{string(key), version})
	return ok && !it.has(fDeleted)
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return Stats{
		Keys:           db.table.Len(),
		UserWriteBytes: db.userWriteBytes,
		UserReadBytes:  db.userReadBytes,
		Puts:           db.puts,
		Gets:           db.gets,
		Dels:           db.dels,
		Tracebacks:     db.tracebacks,
		Checkpoints:    db.checkpoints,
		Store:          db.store.Stats(),
	}
}

// Store exposes the underlying AOF store (read-only use: occupancy
// inspection in experiments).
func (db *DB) Store() *aof.Store { return db.store }

func (db *DB) noteSeq(seq uint64) {
	if seq >= db.maxSeq {
		db.maxSeq = seq + 1
	}
}
