package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"directload/internal/aof"
	"directload/internal/blockfs"
)

// reopen simulates a crash: the memtable is lost and the DB is rebuilt
// from the same (simulated) flash.
func reopen(t *testing.T, fs blockfs.FS) *DB {
	t.Helper()
	db, err := Open(fs, testOptions())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return db
}

func TestRecoveryBasic(t *testing.T) {
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	mustPut(t, db, "a", 1, "va", false)
	mustPut(t, db, "b", 1, "vb", false)
	mustPut(t, db, "b", 2, "", true)
	db.Del([]byte("a"), 1)
	db.Close()

	db2 := reopen(t, fs)
	defer db2.Close()
	if _, _, err := db2.Get([]byte("a"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("deleted key after recovery err = %v", err)
	}
	if got := mustGet(t, db2, "b", 1); got != "vb" {
		t.Fatalf("b/1 = %q", got)
	}
	if got := mustGet(t, db2, "b", 2); got != "vb" {
		t.Fatalf("b/2 traceback after recovery = %q", got)
	}
	if vs := db2.Versions(); len(vs) != 2 {
		t.Fatalf("Versions = %v", vs)
	}
}

func TestRecoveryWithoutClose(t *testing.T) {
	// Crash without sealing the active file: the tail lives in the
	// blockfs write buffer, which simulates the device-visible state.
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	mustPut(t, db, "k", 7, "survives", false)
	// No Close: reopening must fail cleanly or recover the record. Our
	// blockfs keeps the writer's tail readable, so recovery sees it.
	db2 := reopen(t, fs)
	defer db2.Close()
	if got := mustGet(t, db2, "k", 7); got != "survives" {
		t.Fatalf("Get after crash = %q", got)
	}
}

func TestRecoveryVersionDrop(t *testing.T) {
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	for v := uint64(1); v <= 3; v++ {
		for i := 0; i < 5; i++ {
			mustPut(t, db, fmt.Sprintf("k%d", i), v, fmt.Sprintf("v%d", v), false)
		}
	}
	db.DropVersion(1)
	db.Close()

	db2 := reopen(t, fs)
	defer db2.Close()
	if vs := db2.Versions(); len(vs) != 2 || vs[0] != 2 || vs[1] != 3 {
		t.Fatalf("Versions after recovery = %v, want [2 3]", vs)
	}
	if _, _, err := db2.Get([]byte("k0"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("dropped version visible after recovery: %v", err)
	}
}

func TestRecoveryAfterGC(t *testing.T) {
	// GC rewrites and erases files; recovery must replay the relocated
	// records (with their folded delete flags) correctly.
	fs := testFS(t, 1024)
	db, _ := Open(fs, testOptions())
	val := bytes.Repeat([]byte{9}, 10<<10)
	// 120 v1 values fill the first sealed AOF almost entirely, so
	// dropping v1 pushes its occupancy under the 25% threshold.
	for k := 0; k < 120; k++ {
		mustPut(t, db, fmt.Sprintf("dup-%03d", k), 1, string(val), false)
	}
	for k := 0; k < 120; k++ {
		mustPut(t, db, fmt.Sprintf("dup-%03d", k), 2, "", true)
	}
	for k := 0; k < 120; k++ {
		mustPut(t, db, fmt.Sprintf("filler-%03d", k), 2, string(val), false)
	}
	db.DropVersion(1)
	if _, err := db.CollectAll(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Store.GCRuns == 0 {
		t.Fatal("precondition: GC must have run")
	}
	db.Close()

	db2 := reopen(t, fs)
	defer db2.Close()
	// Dropped version stays dropped.
	if _, _, err := db2.Get([]byte("dup-00"), 1); err == nil {
		t.Fatal("v1 should be deleted after recovery")
	}
	// Dedup traceback to relocated (FlagDropped) records still works.
	for k := 0; k < 120; k++ {
		got := mustGet(t, db2, fmt.Sprintf("dup-%03d", k), 2)
		if !bytes.Equal([]byte(got), val) {
			t.Fatalf("dup-%03d/2 wrong after GC+recovery", k)
		}
	}
	for k := 0; k < 120; k++ {
		mustGet(t, db2, fmt.Sprintf("filler-%03d", k), 2)
	}
}

func TestRecoveryOccupancyRebuild(t *testing.T) {
	fs := testFS(t, 1024)
	db, _ := Open(fs, testOptions())
	val := bytes.Repeat([]byte{5}, 10<<10)
	for k := 0; k < 200; k++ {
		mustPut(t, db, fmt.Sprintf("k-%03d", k), 1, string(val), false)
	}
	for k := 0; k < 100; k++ { // delete half
		db.Del([]byte(fmt.Sprintf("k-%03d", k)), 1)
	}
	want := db.Stats().Store
	db.Close()

	db2 := reopen(t, fs)
	defer db2.Close()
	got := db2.Stats().Store
	if got.LiveBytes != want.LiveBytes {
		t.Fatalf("LiveBytes after recovery = %d, want %d", got.LiveBytes, want.LiveBytes)
	}
	// GC still works after a rebuild: drop the rest and collect.
	for k := 100; k < 200; k++ {
		db2.Del([]byte(fmt.Sprintf("k-%03d", k)), 1)
	}
	if _, err := db2.CollectAll(); err != nil {
		t.Fatal(err)
	}
	if db2.Stats().Store.GCRuns == 0 {
		t.Fatal("GC did not run after recovery")
	}
}

func TestRecoverySeqFloorMonotone(t *testing.T) {
	// New appends after recovery must sort after all recovered records.
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	mustPut(t, db, "k", 1, "old", false)
	db.Close()

	db2 := reopen(t, fs)
	mustPut(t, db2, "k", 1, "new", false) // re-put: later seq must win
	db2.Close()

	db3 := reopen(t, fs)
	defer db3.Close()
	if got := mustGet(t, db3, "k", 1); got != "new" {
		t.Fatalf("Get after double recovery = %q, want new (seq ordering)", got)
	}
}

func TestCheckpointBasic(t *testing.T) {
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	for i := 0; i < 50; i++ {
		mustPut(t, db, fmt.Sprintf("k-%02d", i), 1, fmt.Sprintf("v-%02d", i), false)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations must replay on top of the image.
	mustPut(t, db, "k-00", 2, "newer", false)
	db.Del([]byte("k-01"), 1)
	db.Close()

	db2 := reopen(t, fs)
	defer db2.Close()
	if got := mustGet(t, db2, "k-00", 2); got != "newer" {
		t.Fatalf("k-00/2 = %q", got)
	}
	if _, _, err := db2.Get([]byte("k-01"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("k-01 err = %v", err)
	}
	for i := 2; i < 50; i++ {
		if got := mustGet(t, db2, fmt.Sprintf("k-%02d", i), 1); got != fmt.Sprintf("v-%02d", i) {
			t.Fatalf("k-%02d = %q", i, got)
		}
	}
}

func TestCheckpointSupersedesOlder(t *testing.T) {
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	mustPut(t, db, "a", 1, "x", false)
	db.Checkpoint()
	mustPut(t, db, "b", 1, "y", false)
	db.Checkpoint()
	var ckpts int
	for _, n := range fs.List() {
		if _, ok := parseCkptName(n); ok {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("checkpoint files = %d, want 1 (older removed)", ckpts)
	}
	db.Close()
	db2 := reopen(t, fs)
	defer db2.Close()
	mustGet(t, db2, "a", 1)
	mustGet(t, db2, "b", 1)
}

func TestCheckpointThenGCThenRecovery(t *testing.T) {
	// The hard case: checkpoint captures refs, then GC erases some of the
	// checkpointed files. Relocated records must be re-pointed by replay
	// and dead ones dropped.
	fs := testFS(t, 1024)
	db, _ := Open(fs, testOptions())
	val := bytes.Repeat([]byte{7}, 10<<10)
	for k := 0; k < 200; k++ {
		mustPut(t, db, fmt.Sprintf("k-%03d", k), 1, string(val), false)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Kill the first half and GC aggressively.
	for k := 0; k < 100; k++ {
		db.Del([]byte(fmt.Sprintf("k-%03d", k)), 1)
	}
	if _, err := db.CollectAll(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Store.GCRuns == 0 {
		t.Fatal("precondition: GC must have run")
	}
	keysBefore := db.Stats().Keys
	db.Close()

	db2 := reopen(t, fs)
	defer db2.Close()
	if got := db2.Stats().Keys; got != keysBefore {
		t.Fatalf("Keys after recovery = %d, want %d", got, keysBefore)
	}
	for k := 0; k < 100; k++ {
		if _, _, err := db2.Get([]byte(fmt.Sprintf("k-%03d", k)), 1); err == nil {
			t.Fatalf("k-%03d should be gone", k)
		}
	}
	for k := 100; k < 200; k++ {
		got := mustGet(t, db2, fmt.Sprintf("k-%03d", k), 1)
		if !bytes.Equal([]byte(got), val) {
			t.Fatalf("k-%03d corrupted", k)
		}
	}
}

func TestCorruptCheckpointFallsBackToScan(t *testing.T) {
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	mustPut(t, db, "k", 1, "v", false)
	db.Checkpoint()
	db.Close()

	// Corrupt the checkpoint by replacing it with garbage.
	for _, n := range fs.List() {
		if _, ok := parseCkptName(n); ok {
			fs.Remove(n)
			w, _ := fs.Create(n)
			w.Append([]byte("garbage-not-a-checkpoint"))
			w.Close()
		}
	}
	db2 := reopen(t, fs)
	defer db2.Close()
	if got := mustGet(t, db2, "k", 1); got != "v" {
		t.Fatalf("fallback scan failed: %q", got)
	}
}

// modelOp drives the model-equivalence test below.
type modelOp struct {
	op   int // 0=put, 1=putDedup, 2=del, 3=dropVersion
	key  int
	ver  uint64
	vlen int
}

// TestModelEquivalence runs a random op stream against the engine and an
// in-memory model, checking Get agreement after every crash/recovery.
func TestModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	fs := testFS(t, 2048)
	db, _ := Open(fs, testOptions())

	type mval struct {
		val     []byte
		dedup   bool
		base    uint64 // resolved at put time, like the engine
		hasBase bool
		deleted bool
	}
	model := map[string]map[uint64]*mval{} // key -> ver -> state
	keyName := func(k int) string { return fmt.Sprintf("key-%03d", k) }

	// resolveBase mirrors the engine's PUT-time binding: walk versions
	// below ver in descending order, skipping deleted entries; the first
	// live non-dedup entry is the base, and a live dedup entry shortcuts
	// to its own base.
	resolveBase := func(key string, ver uint64) (uint64, bool) {
		var vers []uint64
		for v := range model[key] {
			if v < ver {
				vers = append(vers, v)
			}
		}
		for i := 1; i < len(vers); i++ {
			for j := i; j > 0 && vers[j-1] < vers[j]; j-- {
				vers[j-1], vers[j] = vers[j], vers[j-1]
			}
		}
		for _, v := range vers { // descending
			m := model[key][v]
			if m.deleted {
				continue
			}
			if !m.dedup {
				return v, true
			}
			if m.hasBase {
				return m.base, true
			}
		}
		return 0, false
	}

	apply := func(o modelOp) {
		key := keyName(o.key)
		switch o.op {
		case 0, 1:
			dedup := o.op == 1
			var val []byte
			if !dedup {
				val = make([]byte, o.vlen)
				rng.Read(val)
			}
			if model[key] == nil {
				model[key] = map[uint64]*mval{}
			}
			mv := &mval{val: val, dedup: dedup}
			if dedup {
				mv.base, mv.hasBase = resolveBase(key, o.ver)
			}
			if _, err := db.Put([]byte(key), o.ver, val, dedup); err != nil {
				t.Fatalf("Put: %v", err)
			}
			model[key][o.ver] = mv
		case 2:
			_, err := db.Del([]byte(key), o.ver)
			mv := model[key][o.ver]
			if mv == nil || mv.deleted {
				if err == nil {
					t.Fatalf("Del(%s/%d) should fail", key, o.ver)
				}
				return
			}
			if err != nil {
				t.Fatalf("Del(%s/%d): %v", key, o.ver, err)
			}
			mv.deleted = true
		case 3:
			db.DropVersion(o.ver)
			for _, vers := range model {
				if mv := vers[o.ver]; mv != nil {
					mv.deleted = true
				}
			}
		}
	}

	// expected resolves what Get should return under the model: dedup
	// entries read the value currently stored under their bound base.
	expected := func(key string, ver uint64) ([]byte, bool) {
		vers := model[key]
		mv := vers[ver]
		if mv == nil || mv.deleted {
			return nil, false
		}
		if !mv.dedup {
			return mv.val, true
		}
		if !mv.hasBase {
			return nil, false
		}
		base := vers[mv.base]
		if base == nil || base.dedup {
			return nil, false
		}
		return base.val, true
	}

	check := func() {
		for k := 0; k < 20; k++ {
			key := keyName(k)
			for ver := uint64(1); ver <= 6; ver++ {
				wantVal, wantOK := expected(key, ver)
				gotVal, _, err := db.Get([]byte(key), ver)
				if wantOK {
					if err != nil {
						t.Fatalf("Get(%s/%d) = %v, model expects %d bytes", key, ver, err, len(wantVal))
					}
					if !bytes.Equal(gotVal, wantVal) {
						mv := model[key][ver]
						t.Fatalf("Get(%s/%d) value mismatch: got %d bytes, want %d bytes; model=%+v",
							key, ver, len(gotVal), len(wantVal), *mv)
					}
				} else if err == nil && model[key][ver] != nil && !model[key][ver].deleted {
					// dedup broken chain is allowed to differ only via error
					t.Fatalf("Get(%s/%d) succeeded, model expects failure", key, ver)
				}
			}
		}
	}

	for round := 0; round < 6; round++ {
		for i := 0; i < 300; i++ {
			o := modelOp{
				op:   rng.Intn(4),
				key:  rng.Intn(20),
				ver:  uint64(rng.Intn(6) + 1),
				vlen: rng.Intn(4000) + 1,
			}
			if o.op == 3 && rng.Intn(4) != 0 {
				o.op = 0 // make version drops rarer
			}
			apply(o)
		}
		check()
		if round%2 == 0 {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		db.CollectAll()
		check()
		// Crash and recover.
		db.Close()
		db = reopen(t, fs)
		check()
	}
	db.Close()
}

// TestReviveAfterRelocatedDropSurvivesRecovery pins a bug found by
// cmd/crashtest: GC used to relocate version-drop/tombstone records with
// fresh sequence numbers, so a drop could replay AFTER a later re-put of
// the same key/version and kill the revived entry during recovery.
// Deletion records must keep their original sequence when relocated.
func TestReviveAfterRelocatedDropSurvivesRecovery(t *testing.T) {
	fs := testFS(t, 1024)
	db, _ := Open(fs, testOptions())
	val := bytes.Repeat([]byte{8}, 10<<10)
	// Fill a file with v1 data, drop v1 (the version-drop record lands in
	// a later file), then make the first file a GC candidate.
	for k := 0; k < 120; k++ {
		mustPut(t, db, fmt.Sprintf("k-%03d", k), 1, string(val), false)
	}
	if _, _, err := db.DropVersion(1); err != nil {
		t.Fatal(err)
	}
	// Revive one key at the dropped version BEFORE GC runs on the file
	// holding the version-drop record.
	mustPut(t, db, "k-000", 1, "revived", false)
	// Force GC over everything it can collect: the version-drop record is
	// relocated (it is always preserved).
	if _, err := db.CollectAll(); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, db, "k-000", 1); got != "revived" {
		t.Fatalf("pre-crash: %q", got)
	}
	db.Close()

	db2 := reopen(t, fs)
	defer db2.Close()
	if got := mustGet(t, db2, "k-000", 1); got != "revived" {
		t.Fatalf("post-crash: revived key lost, got %q", got)
	}
}

// TestKeyLengthLimit pins the key-length contract: a key as long as the
// AOF's keyLen field can hold round-trips, including through recovery,
// and one byte more is refused before anything reaches flash — so the
// store still reopens.
func TestKeyLengthLimit(t *testing.T) {
	fs := testFS(t, 256)
	db, err := Open(fs, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	maxKey := bytes.Repeat([]byte{'k'}, aof.MaxKeyLen)
	if _, err := db.Put(maxKey, 1, []byte("max"), false); err != nil {
		t.Fatalf("Put(%d-byte key): %v", len(maxKey), err)
	}
	long := bytes.Repeat([]byte{'k'}, aof.MaxKeyLen+1)
	if _, err := db.Put(long, 1, []byte("over"), false); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("Put(%d-byte key) err = %v, want ErrKeyTooLong", len(long), err)
	}
	if _, err := db.Del(long, 1); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("Del(%d-byte key) err = %v, want ErrKeyTooLong", len(long), err)
	}
	if v, _, err := db.Get(maxKey, 1); err != nil || string(v) != "max" {
		t.Fatalf("Get(max key) = %q, %v", v, err)
	}
	db.Close()

	db2 := reopen(t, fs)
	defer db2.Close()
	if v, _, err := db2.Get(maxKey, 1); err != nil || string(v) != "max" {
		t.Fatalf("Get(max key) after reopen = %q, %v", v, err)
	}
}
