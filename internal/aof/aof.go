// Package aof implements QinDB's on-flash layout: a set of fixed-size
// append-only files (AOFs, paper §2.3) holding length-prefixed,
// checksummed key-value records, plus the in-memory GC table that tracks
// per-file occupancy for the lazy garbage collection policy.
//
// The store is policy-free about liveness: the engine (internal/core)
// owns the memtable and therefore knows which records are referenced; GC
// asks it through callbacks. What lives here is the mechanics the paper
// describes: append records to the active file, rotate at the size
// limit, maintain the occupancy ratio table, and — when a file's
// occupancy falls below the threshold — re-append the records the engine
// wants kept and erase the file (steps 3–6 of paper Fig. 2).
package aof

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"directload/internal/blockfs"
	"directload/internal/metrics"
)

// Record flags.
const (
	// FlagDedup marks a record whose value was removed by Bifrost
	// deduplication: the value field is NULL and readers must trace back
	// to an older version for the payload (paper Fig. 2, GET).
	FlagDedup uint8 = 1 << iota
	// FlagTombstone marks a deletion record, written so that DEL
	// operations survive crash recovery (the memtable delete flag alone
	// lives only in memory).
	FlagTombstone
	// FlagDropped marks a record whose key/version had already been
	// deleted when garbage collection relocated it (kept only because a
	// newer deduplicated version still refers to its value). Recovery
	// replays it with the delete flag set.
	FlagDropped
	// FlagVersionDrop marks a meta-record (empty key) recording that a
	// whole data version was dropped by the retention policy; recovery
	// replays the bulk delete.
	FlagVersionDrop
)

// Record is one key-value entry as stored in an AOF. Seq is assigned by
// the store at append time and increases monotonically across the whole
// store lifetime; recovery replays records in Seq order so that the
// jumbled physical order left behind by GC relocation cannot reorder
// logically-later operations before earlier ones.
type Record struct {
	Seq     uint64
	Key     []byte
	Version uint64
	Flags   uint8
	Value   []byte
}

// IsDedup reports whether the value field was removed by deduplication.
func (r Record) IsDedup() bool { return r.Flags&FlagDedup != 0 }

// IsTombstone reports whether this is a deletion record.
func (r Record) IsTombstone() bool { return r.Flags&FlagTombstone != 0 }

// IsDropped reports whether the record was relocated after deletion.
func (r Record) IsDropped() bool { return r.Flags&FlagDropped != 0 }

// IsVersionDrop reports whether this is a version-retention meta-record.
func (r Record) IsVersionDrop() bool { return r.Flags&FlagVersionDrop != 0 }

// Ref locates a record on flash.
type Ref struct {
	File uint32 // AOF file id
	Off  int64  // byte offset of the record header within the file
	Len  uint32 // total encoded length
}

// Zero is the zero Ref, used as "no location".
var Zero Ref

// Store errors.
var (
	ErrCorrupt = errors.New("aof: corrupt record")
	ErrNoFile  = errors.New("aof: unknown file")
)

// record wire format:
//
//	crc      uint32   // over everything after this field
//	seq      uint64
//	version  uint64
//	flags    uint8
//	keyLen   uint16
//	valLen   uint32
//	key      [keyLen]byte
//	value    [valLen]byte
const headerSize = 4 + 8 + 8 + 1 + 2 + 4

// MaxKeyLen is the longest key a record can hold: the width of its
// keyLen field. Every entry point that accepts a key enforces it.
const MaxKeyLen = 1<<16 - 1

// EncodedLen returns the on-flash size of a record.
func EncodedLen(keyLen, valLen int) int { return headerSize + keyLen + valLen }

// Encode serializes rec into a fresh buffer.
func Encode(rec Record) []byte {
	buf := make([]byte, EncodedLen(len(rec.Key), len(rec.Value)))
	binary.LittleEndian.PutUint64(buf[4:], rec.Seq)
	binary.LittleEndian.PutUint64(buf[12:], rec.Version)
	buf[20] = rec.Flags
	binary.LittleEndian.PutUint16(buf[21:], uint16(len(rec.Key)))
	binary.LittleEndian.PutUint32(buf[23:], uint32(len(rec.Value)))
	copy(buf[headerSize:], rec.Key)
	copy(buf[headerSize+len(rec.Key):], rec.Value)
	binary.LittleEndian.PutUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	return buf
}

// Decode parses one record from buf, returning it and the encoded length.
func Decode(buf []byte) (Record, int, error) {
	if len(buf) < headerSize {
		return Record{}, 0, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(buf))
	}
	keyLen := int(binary.LittleEndian.Uint16(buf[21:]))
	valLen := int(binary.LittleEndian.Uint32(buf[23:]))
	total := headerSize + keyLen + valLen
	if len(buf) < total {
		return Record{}, 0, fmt.Errorf("%w: short body (%d < %d)", ErrCorrupt, len(buf), total)
	}
	if crc32.ChecksumIEEE(buf[4:total]) != binary.LittleEndian.Uint32(buf) {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	rec := Record{
		Seq:     binary.LittleEndian.Uint64(buf[4:]),
		Version: binary.LittleEndian.Uint64(buf[12:]),
		Flags:   buf[20],
		Key:     append([]byte(nil), buf[headerSize:headerSize+keyLen]...),
		Value:   append([]byte(nil), buf[headerSize+keyLen:total]...),
	}
	if valLen == 0 {
		rec.Value = nil
	}
	return rec, total, nil
}

// Config controls the store geometry and GC policy.
type Config struct {
	// FileSize is the AOF rotation size; the paper fixes it at 64 MB.
	FileSize int64
	// GCThreshold is the occupancy ratio at or below which a sealed file
	// becomes a GC candidate; the paper uses 0.25.
	GCThreshold float64
	// MinFreeBytes: when the filesystem's free space falls below this,
	// GC runs even while reads are in flight (the "free disk space"
	// clause of the lazy policy). Zero disables the pressure override.
	MinFreeBytes int64
	// Metrics, when non-nil, receives the store's `aof.*` metrics
	// (appends, rotations, fsyncs, GC activity). Nil keeps the store
	// uninstrumented at zero cost.
	Metrics *metrics.Registry
}

// DefaultConfig matches the paper: 64 MB AOFs, 25 % occupancy threshold.
func DefaultConfig() Config {
	return Config{FileSize: 64 << 20, GCThreshold: 0.25}
}

type fileInfo struct {
	total int64 // bytes of records appended
	live  int64 // bytes of records still referenced
	seal  bool  // no longer the active file
}

// Store is the AOF set plus the GC table.
type Store struct {
	mu     sync.Mutex
	fs     blockfs.FS
	cfg    Config
	files  map[uint32]*fileInfo
	nextID uint32
	active uint32
	writer blockfs.Writer

	seq       uint64 // next sequence number to assign
	readers   int    // reads in flight (lazy-GC deferral input)
	appended  int64  // lifetime record bytes appended (incl. GC re-appends)
	gcRuns    int64
	gcMoved   int64 // bytes re-appended by GC
	gcFreed   int64 // bytes of reclaimed files
	gcPending int64 // dead bytes awaiting GC

	met storeMetrics
}

// storeMetrics holds the store's registry handles. All fields stay nil
// without a registry; the metric types' nil-receiver no-ops keep the
// append path allocation-free in that case.
type storeMetrics struct {
	appends     *metrics.Counter
	appendBytes *metrics.Counter
	rotations   *metrics.Counter
	fsyncs      *metrics.Counter
	reads       *metrics.Counter
	files       *metrics.Gauge
	gcCollects  *metrics.Counter
	gcMoved     *metrics.Counter
	gcFreed     *metrics.Counter
	tracer      *metrics.Tracer
}

func newStoreMetrics(reg *metrics.Registry) storeMetrics {
	return storeMetrics{
		appends:     reg.Counter("aof.appends"),
		appendBytes: reg.Counter("aof.append.bytes"),
		rotations:   reg.Counter("aof.rotations"),
		fsyncs:      reg.Counter("aof.fsyncs"),
		reads:       reg.Counter("aof.reads"),
		files:       reg.Gauge("aof.files"),
		gcCollects:  reg.Counter("aof.gc.collects"),
		gcMoved:     reg.Counter("aof.gc.moved_bytes"),
		gcFreed:     reg.Counter("aof.gc.freed_bytes"),
		tracer:      reg.Tracer(),
	}
}

// filename formats the AOF file name for id.
func filename(id uint32) string { return fmt.Sprintf("aof-%08d", id) }

// parseFilename returns the id encoded in an AOF name.
func parseFilename(name string) (uint32, bool) {
	var id uint32
	if _, err := fmt.Sscanf(name, "aof-%08d", &id); err != nil {
		return 0, false
	}
	return id, true
}

// Open creates a store over fs. If AOF files already exist (recovery),
// they are registered sealed with zero live bytes; the engine's recovery
// scan re-marks live records via MarkLive.
func Open(fs blockfs.FS, cfg Config) (*Store, error) {
	if cfg.FileSize <= 0 {
		return nil, errors.New("aof: non-positive file size")
	}
	if cfg.GCThreshold < 0 || cfg.GCThreshold > 1 {
		return nil, errors.New("aof: GC threshold must be in [0, 1]")
	}
	s := &Store{fs: fs, cfg: cfg, files: make(map[uint32]*fileInfo), met: newStoreMetrics(cfg.Metrics)}
	for _, name := range fs.List() {
		id, ok := parseFilename(name)
		if !ok {
			continue
		}
		size, err := fs.Size(name)
		if err != nil {
			return nil, err
		}
		s.files[id] = &fileInfo{total: size, seal: true}
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	s.met.files.Set(int64(len(s.files)))
	return s, nil
}

// rotateLocked seals the active file and opens a fresh one.
func (s *Store) rotateLocked() error {
	end := s.met.tracer.Span("aof.rotate")
	if s.writer != nil {
		if _, err := s.writer.Close(); err != nil {
			end(err)
			return err
		}
		s.files[s.active].seal = true
		s.writer = nil
	}
	id := s.nextID
	w, err := s.fs.Create(filename(id))
	if err != nil {
		end(err)
		return err
	}
	s.nextID++
	s.active = id
	s.writer = w
	s.files[id] = &fileInfo{}
	s.met.rotations.Inc()
	s.met.files.Set(int64(len(s.files)))
	end(nil)
	return nil
}

// Append writes rec to the active AOF, rotating first if it would exceed
// the file size limit. The record starts live. The store assigns the
// record's sequence number; the caller's Seq field is ignored. The
// assigned value is returned so the engine can track recovery floors.
func (s *Store) Append(rec Record) (Ref, uint64, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Seq = s.seq
	s.seq++
	ref, cost, err := s.appendLocked(Encode(rec))
	return ref, rec.Seq, cost, err
}

// SeqFloor raises the next sequence number to at least floor. The engine
// calls this after a recovery scan so new appends sort after everything
// already on flash.
func (s *Store) SeqFloor(floor uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if floor > s.seq {
		s.seq = floor
	}
}

func (s *Store) appendLocked(buf []byte) (Ref, time.Duration, error) {
	if s.writer == nil || s.writer.Offset()+int64(len(buf)) > s.cfg.FileSize {
		if err := s.rotateLocked(); err != nil {
			return Zero, 0, err
		}
	}
	off, cost, err := s.writer.Append(buf)
	if err != nil {
		return Zero, cost, err
	}
	fi := s.files[s.active]
	fi.total += int64(len(buf))
	fi.live += int64(len(buf))
	s.appended += int64(len(buf))
	s.met.appends.Inc()
	s.met.appendBytes.Add(int64(len(buf)))
	return Ref{File: s.active, Off: off, Len: uint32(len(buf))}, cost, nil
}

// Read fetches and decodes the record at ref. Reads are tracked so the
// lazy GC policy can defer collection while reads are in flight.
func (s *Store) Read(ref Ref) (Record, time.Duration, error) {
	s.met.reads.Inc()
	s.mu.Lock()
	s.readers++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.readers--
		s.mu.Unlock()
	}()
	r, err := s.fs.Open(filename(ref.File))
	if err != nil {
		return Record{}, 0, fmt.Errorf("%w: %d", ErrNoFile, ref.File)
	}
	buf := make([]byte, ref.Len)
	n, cost, err := r.ReadAt(buf, ref.Off)
	if err != nil {
		return Record{}, cost, err
	}
	rec, _, err := Decode(buf[:n])
	return rec, cost, err
}

// MarkDead records that the record at ref is no longer referenced,
// updating the GC table's occupancy ratio (paper Fig. 2, DEL step 2).
func (s *Store) MarkDead(ref Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fi, ok := s.files[ref.File]; ok {
		fi.live -= int64(ref.Len)
		if fi.live < 0 {
			fi.live = 0
		}
		s.gcPending += int64(ref.Len)
	}
}

// MarkLive re-registers a referenced record during recovery scans.
func (s *Store) MarkLive(ref Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fi, ok := s.files[ref.File]; ok {
		fi.live += int64(ref.Len)
		if fi.live > fi.total {
			fi.live = fi.total
		}
	}
}

// Occupancy returns live/total for the file, or -1 if unknown.
func (s *Store) Occupancy(file uint32) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, ok := s.files[file]
	if !ok || fi.total == 0 {
		return -1
	}
	return float64(fi.live) / float64(fi.total)
}

// Sync flushes the active writer's complete pages.
func (s *Store) Sync() (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer == nil {
		return 0, nil
	}
	s.met.fsyncs.Inc()
	return s.writer.Sync()
}

// Close seals the active file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer == nil {
		return nil
	}
	_, err := s.writer.Close()
	s.files[s.active].seal = true
	s.writer = nil
	return err
}

// Files returns the ids of all AOF files in ascending order.
func (s *Store) Files() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint32, 0, len(s.files))
	for id := range s.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Stats summarizes store and GC state.
type Stats struct {
	Files         int
	TotalBytes    int64 // sum of record bytes across files
	LiveBytes     int64
	DiskBytes     int64 // physical flash occupied (page-padded)
	AppendedBytes int64 // lifetime record bytes appended (incl. GC re-appends)
	GCRuns        int64
	GCMoved       int64 // bytes re-appended during GC
	GCFreed       int64 // record bytes in files erased by GC
}

// Stats returns current statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Files: len(s.files), AppendedBytes: s.appended,
		GCRuns: s.gcRuns, GCMoved: s.gcMoved, GCFreed: s.gcFreed}
	for _, fi := range s.files {
		st.TotalBytes += fi.total
		st.LiveBytes += fi.live
	}
	st.DiskBytes = s.fs.UsedBytes()
	return st
}

// ScanFile iterates the records of one file in append order, stopping if
// fn returns an error. Used for recovery and by GC.
func (s *Store) ScanFile(id uint32, fn func(rec Record, ref Ref) error) error {
	name := filename(id)
	size, err := s.fs.Size(name)
	if err != nil {
		return err
	}
	r, err := s.fs.Open(name)
	if err != nil {
		return err
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, _, err := r.ReadAt(buf, 0); err != nil {
			return err
		}
	}
	var off int64
	for off < size {
		rec, n, err := Decode(buf[off:])
		if err != nil {
			return fmt.Errorf("file %d offset %d: %w", id, off, err)
		}
		if err := fn(rec, Ref{File: id, Off: off, Len: uint32(n)}); err != nil {
			return err
		}
		off += int64(n)
	}
	return nil
}

// ScanAll iterates every record of every file in (file id, offset) order.
func (s *Store) ScanAll(fn func(rec Record, ref Ref) error) error {
	for _, id := range s.Files() {
		if err := s.ScanFile(id, fn); err != nil {
			return err
		}
	}
	return nil
}

// Judge is the engine's liveness oracle for GC: it returns true when the
// record at ref must be preserved — either it is the current target of a
// memtable item, or it is an older version still reachable through dedup
// traceback (paper: "invalid key-value pairs that are referred by later
// version keys"). The judge may mutate the record's flags before the
// relocation copy is written (e.g. folding a memtable delete flag into
// FlagDropped so the deletion survives recovery).
type Judge func(rec *Record, ref Ref) bool

// Relocated notifies the engine that a preserved record moved, so it can
// update the offset fields in the skip list (paper Fig. 2, GC step 5).
type Relocated func(rec Record, old, new Ref)

// Candidates returns sealed files whose occupancy is at or below the GC
// threshold, lowest occupancy first.
func (s *Store) Candidates() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	type cand struct {
		id  uint32
		occ float64
	}
	var cs []cand
	for id, fi := range s.files {
		if !fi.seal || fi.total == 0 {
			continue
		}
		occ := float64(fi.live) / float64(fi.total)
		if occ <= s.cfg.GCThreshold {
			cs = append(cs, cand{id, occ})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].occ < cs[j].occ })
	ids := make([]uint32, len(cs))
	for i, c := range cs {
		ids[i] = c.id
	}
	return ids
}

// ShouldCollect applies the paper's lazy deferral rule: collect only if
// there are candidates and either no reads are in flight or free space
// has fallen below the pressure threshold.
func (s *Store) ShouldCollect() bool {
	s.mu.Lock()
	readers := s.readers
	s.mu.Unlock()
	if len(s.Candidates()) == 0 {
		return false
	}
	if readers == 0 {
		return true
	}
	if s.cfg.MinFreeBytes > 0 {
		free := s.fs.Device().Config().Capacity() - s.fs.UsedBytes()
		return free < s.cfg.MinFreeBytes
	}
	return false
}

// CollectFile garbage-collects one file: preserved records (per judge)
// are re-appended to the active AOF, the engine is told their new
// location, and the file is erased. It returns the record bytes
// reclaimed and the simulated device cost. This is the software-level
// write amplification QinDB pays (paper: "up to 2.5x ... as QinDB has to
// re-append valid data of deleted files in the GC process").
func (s *Store) CollectFile(id uint32, judge Judge, relocated Relocated) (int64, time.Duration, error) {
	s.mu.Lock()
	fi, ok := s.files[id]
	if !ok {
		s.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %d", ErrNoFile, id)
	}
	if !fi.seal {
		s.mu.Unlock()
		return 0, 0, fmt.Errorf("aof: file %d is active", id)
	}
	total := fi.total
	s.mu.Unlock()

	var cost time.Duration
	var moved int64
	err := s.ScanFile(id, func(rec Record, ref Ref) error {
		if !judge(&rec, ref) {
			return nil
		}
		s.mu.Lock()
		// Data records get a fresh sequence number: recovery relies on
		// relocations sorting after a checkpoint's floor so it re-points
		// checkpointed items. Tombstones and version-drop meta-records
		// keep their ORIGINAL sequence: their deletion effect is
		// position-dependent, and replaying one after a later revive of
		// the same key/version would resurrect the deletion.
		if !rec.IsTombstone() {
			rec.Seq = s.seq
			s.seq++
		}
		buf := Encode(rec)
		newRef, c, err := s.appendLocked(buf)
		s.mu.Unlock()
		cost += c
		if err != nil {
			return err
		}
		moved += int64(len(buf))
		if relocated != nil {
			relocated(rec, ref, newRef)
		}
		return nil
	})
	if err != nil {
		return 0, cost, err
	}
	c, err := s.fs.Remove(filename(id))
	cost += c
	if err != nil {
		return 0, cost, err
	}
	s.mu.Lock()
	delete(s.files, id)
	s.gcRuns++
	s.gcMoved += moved
	s.gcFreed += total
	if dead := total - moved; dead > 0 {
		s.gcPending -= dead
		if s.gcPending < 0 {
			s.gcPending = 0
		}
	}
	s.met.gcCollects.Inc()
	s.met.gcMoved.Add(moved)
	s.met.gcFreed.Add(total)
	s.met.files.Set(int64(len(s.files)))
	s.mu.Unlock()
	return total - moved, cost, nil
}

// CollectOnce collects the best candidate if the lazy policy allows,
// returning whether a file was collected.
func (s *Store) CollectOnce(judge Judge, relocated Relocated) (bool, time.Duration, error) {
	if !s.ShouldCollect() {
		return false, 0, nil
	}
	cands := s.Candidates()
	if len(cands) == 0 {
		return false, 0, nil
	}
	_, cost, err := s.CollectFile(cands[0], judge, relocated)
	return err == nil, cost, err
}

// UnderPressure reports whether free flash space has dropped below the
// configured MinFreeBytes (always false when the override is disabled).
func (s *Store) UnderPressure() bool {
	if s.cfg.MinFreeBytes <= 0 {
		return false
	}
	free := s.fs.Device().Config().Capacity() - s.fs.UsedBytes()
	return free < s.cfg.MinFreeBytes
}

// PressureCandidate returns the sealed file with the lowest occupancy —
// the victim to collect when space pressure overrides the lazy threshold.
// Files above 95% occupancy are not worth rewriting and are skipped.
func (s *Store) PressureCandidate() (uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := uint32(0)
	bestOcc := 0.95
	found := false
	for id, fi := range s.files {
		if !fi.seal || fi.total == 0 {
			continue
		}
		occ := float64(fi.live) / float64(fi.total)
		if occ < bestOcc {
			best, bestOcc, found = id, occ, true
		}
	}
	return best, found
}
