package main

import (
	"fmt"
	"hash/crc32"
	"sync"

	"directload/internal/workload"
)

// The paper's data: 20-byte keys, 20 KB ± 4 KB values, 70 % of values
// unchanged from one version to the next. 8,000 keys make one version's
// values about 160 MB, above the 105 MiB L3 of the machine the
// benchmark was sized on.
const (
	keyCount    = 8000
	valueSize   = 20 << 10
	valueStdDev = 4 << 10
	dupRatio    = 0.7
	retained    = 4 // versions a store keeps (paper §1.1.2)
	// sliceLimit 0 is bifrost's default slice size, 4 MiB, the size
	// cluster.Config ships slices at.
	sliceLimit = 0
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum identifies an expected value without keeping its bytes.
type checksum struct {
	crc uint32
	n   int
}

func sum(v []byte) checksum { return checksum{crc32.Checksum(v, castagnoli), len(v)} }

// dataset generates the versions of one run from its seed and keeps the
// checksum of every value of the versions a GET may still ask for.
type dataset struct {
	gen  *workload.Generator
	keys [][]byte

	mu   sync.RWMutex // readers check values while the publisher generates
	sums map[uint64][]checksum
}

func newDataset(seed int64, keys int) (*dataset, error) {
	gen, err := workload.NewGenerator(workload.KVConfig{
		Keys:            keys,
		ValueSize:       valueSize,
		ValueSizeStdDev: valueStdDev,
		DupRatio:        dupRatio,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	d := &dataset{gen: gen, sums: make(map[uint64][]checksum)}
	for i := 0; i < keys; i++ {
		d.keys = append(d.keys, gen.Key(i))
	}
	return d, nil
}

// version is one generated index version, held in memory while it is
// published.
type version struct {
	v       uint64
	entries []workload.Entry
	logical int64 // key+value bytes of every entry, duplicates included
}

// next generates the next version and records its checksums.
func (d *dataset) next() (*version, error) {
	ver := &version{entries: make([]workload.Entry, 0, len(d.keys))}
	sums := make([]checksum, 0, len(d.keys))
	err := d.gen.NextVersion(func(e workload.Entry) error {
		ver.entries = append(ver.entries, e)
		ver.logical += int64(len(e.Key) + len(e.Value))
		sums = append(sums, sum(e.Value))
		return nil
	})
	if err != nil {
		return nil, err
	}
	ver.v = d.gen.Version()
	d.mu.Lock()
	d.sums[ver.v] = sums
	d.mu.Unlock()
	return ver, nil
}

// initial generates the first four versions once, for every set-up of
// a run to publish. An unchanged value shares the previous version's
// bytes, so the four versions hold each distinct value once.
func (d *dataset) initial() ([]*version, error) {
	var out []*version
	for i := 0; i < retained; i++ {
		ver, err := d.next()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			prev := out[i-1].entries
			for j, e := range ver.entries {
				if e.Dup {
					ver.entries[j].Value = prev[j].Value
				}
			}
		}
		out = append(out, ver)
	}
	return out, nil
}

// forget drops the checksums of a version no GET will ask for again.
func (d *dataset) forget(v uint64) {
	d.mu.Lock()
	delete(d.sums, v)
	d.mu.Unlock()
}

// check compares a GET's value with the expected value of key i at v.
func (d *dataset) check(v uint64, i int, val []byte) error {
	d.mu.RLock()
	sums, ok := d.sums[v]
	d.mu.RUnlock()
	if !ok || sum(val) != sums[i] {
		return fmt.Errorf("wrong value for key %d at v%d", i, v)
	}
	return nil
}

// liveBytes is what the given versions need stored: every entry's key,
// and each value once for every run of versions it stays unchanged in.
func (d *dataset) liveBytes(versions []uint64) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total int64
	for i, k := range d.keys {
		var prev checksum
		for j, v := range versions {
			c := d.sums[v][i]
			total += int64(len(k))
			if j == 0 || c != prev {
				total += int64(c.n)
			}
			prev = c
		}
	}
	return total
}
