package main

import (
	"sync/atomic"
	"time"

	"directload/internal/blockfs"
	"directload/internal/ssd"
)

// probe is the traced run's view from outside the program: a blockfs.FS
// wrapper that records a span around every engine call into blockfs,
// and device hooks that count flash traffic.
type probe struct {
	tr  *tracer
	dev devCounter
}

func newProbe(tr *tracer) *probe { return &probe{tr: tr} }

// hookDevice installs the flash traffic counters on dev.
func (p *probe) hookDevice(dev *ssd.Device) {
	dev.SetTraceFuncs(p.dev.onWrite, p.dev.onRead)
}

// devCounter counts device page programs and page reads through
// ssd.Device.SetTraceFuncs hooks.
type devCounter struct {
	programs, programBytes atomic.Int64
	reads, readBytes       atomic.Int64
}

func (c *devCounter) onWrite(_ time.Duration, n int64) {
	c.programs.Add(1)
	c.programBytes.Add(n)
}

func (c *devCounter) onRead(_ time.Duration, n int64) {
	c.reads.Add(1)
	c.readBytes.Add(n)
}

// devCounts is a point-in-time copy of a devCounter.
type devCounts struct{ programs, programBytes, reads, readBytes int64 }

func (c *devCounter) load() devCounts {
	return devCounts{c.programs.Load(), c.programBytes.Load(), c.reads.Load(), c.readBytes.Load()}
}

func (a devCounts) sub(b devCounts) devCounts {
	return devCounts{a.programs - b.programs, a.programBytes - b.programBytes, a.reads - b.reads, a.readBytes - b.readBytes}
}

func (a devCounts) add(b devCounts) devCounts {
	return devCounts{a.programs + b.programs, a.programBytes + b.programBytes, a.reads + b.reads, a.readBytes + b.readBytes}
}

// Span names the blockfs wrapper records.
const (
	spanFSCreate   = "blockfs.create"
	spanFSOpen     = "blockfs.open"
	spanFSRemove   = "blockfs.remove"
	spanFSSize     = "blockfs.size"
	spanFSList     = "blockfs.list"
	spanFSUsed     = "blockfs.used_bytes"
	spanFSDevice   = "blockfs.device"
	spanFSAppend   = "blockfs.append"
	spanFSSync     = "blockfs.sync"
	spanFSClose    = "blockfs.close"
	spanFSOffset   = "blockfs.offset"
	spanFSReadAt   = "blockfs.read_at"
	spanFSFileSize = "blockfs.file_size"
)

// wrapFS returns fs with every call timed; results pass through as the
// wrapped filesystem returned them.
func (p *probe) wrapFS(fs blockfs.FS) blockfs.FS { return &timedFS{fs: fs, tr: p.tr} }

type timedFS struct {
	fs blockfs.FS
	tr *tracer
}

func (f *timedFS) Create(name string) (blockfs.Writer, error) {
	id := f.tr.beginChild(spanFSCreate)
	w, err := f.fs.Create(name)
	f.tr.end(id, 0, 0)
	if w == nil {
		return nil, err
	}
	return &timedWriter{w: w, tr: f.tr}, err
}

func (f *timedFS) Open(name string) (blockfs.Reader, error) {
	id := f.tr.beginChild(spanFSOpen)
	r, err := f.fs.Open(name)
	f.tr.end(id, 0, 0)
	if r == nil {
		return nil, err
	}
	return &timedReader{r: r, tr: f.tr}, err
}

func (f *timedFS) Remove(name string) (time.Duration, error) {
	id := f.tr.beginChild(spanFSRemove)
	cost, err := f.fs.Remove(name)
	f.tr.end(id, cost, 0)
	return cost, err
}

func (f *timedFS) Size(name string) (int64, error) {
	id := f.tr.beginChild(spanFSSize)
	n, err := f.fs.Size(name)
	f.tr.end(id, 0, 0)
	return n, err
}

func (f *timedFS) List() []string {
	id := f.tr.beginChild(spanFSList)
	names := f.fs.List()
	f.tr.end(id, 0, 0)
	return names
}

func (f *timedFS) UsedBytes() int64 {
	id := f.tr.beginChild(spanFSUsed)
	n := f.fs.UsedBytes()
	f.tr.end(id, 0, 0)
	return n
}

func (f *timedFS) Device() *ssd.Device {
	id := f.tr.beginChild(spanFSDevice)
	d := f.fs.Device()
	f.tr.end(id, 0, 0)
	return d
}

type timedWriter struct {
	w  blockfs.Writer
	tr *tracer
}

func (w *timedWriter) Append(p []byte) (int64, time.Duration, error) {
	id := w.tr.beginChild(spanFSAppend)
	off, cost, err := w.w.Append(p)
	w.tr.end(id, cost, int64(len(p)))
	return off, cost, err
}

func (w *timedWriter) Sync() (time.Duration, error) {
	id := w.tr.beginChild(spanFSSync)
	cost, err := w.w.Sync()
	w.tr.end(id, cost, 0)
	return cost, err
}

func (w *timedWriter) Close() (time.Duration, error) {
	id := w.tr.beginChild(spanFSClose)
	cost, err := w.w.Close()
	w.tr.end(id, cost, 0)
	return cost, err
}

func (w *timedWriter) Offset() int64 {
	id := w.tr.beginChild(spanFSOffset)
	off := w.w.Offset()
	w.tr.end(id, 0, 0)
	return off
}

type timedReader struct {
	r  blockfs.Reader
	tr *tracer
}

func (r *timedReader) ReadAt(p []byte, off int64) (int, time.Duration, error) {
	id := r.tr.beginChild(spanFSReadAt)
	n, cost, err := r.r.ReadAt(p, off)
	r.tr.end(id, cost, int64(n))
	return n, cost, err
}

func (r *timedReader) Size() int64 {
	id := r.tr.beginChild(spanFSFileSize)
	n := r.r.Size()
	r.tr.end(id, 0, 0)
	return n
}
