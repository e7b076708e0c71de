package main

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"directload/internal/blockfs"
	"directload/internal/ssd"
)

var errFake = errors.New("fake failure")

// fakeFS records every call and answers with fixed, distinctive values.
type fakeFS struct {
	calls []string
	dev   *ssd.Device
}

func (f *fakeFS) Create(name string) (blockfs.Writer, error) {
	f.calls = append(f.calls, "Create "+name)
	if name == "bad" {
		return nil, errFake
	}
	return &fakeWriter{fs: f}, nil
}

func (f *fakeFS) Open(name string) (blockfs.Reader, error) {
	f.calls = append(f.calls, "Open "+name)
	if name == "bad" {
		return nil, errFake
	}
	return &fakeReader{fs: f}, nil
}

func (f *fakeFS) Remove(name string) (time.Duration, error) {
	f.calls = append(f.calls, "Remove "+name)
	return 7 * time.Millisecond, errFake
}

func (f *fakeFS) Size(name string) (int64, error) {
	f.calls = append(f.calls, "Size "+name)
	return 4242, errFake
}

func (f *fakeFS) List() []string {
	f.calls = append(f.calls, "List")
	return []string{"a", "b"}
}

func (f *fakeFS) UsedBytes() int64 {
	f.calls = append(f.calls, "UsedBytes")
	return 99
}

func (f *fakeFS) Device() *ssd.Device {
	f.calls = append(f.calls, "Device")
	return f.dev
}

type fakeWriter struct{ fs *fakeFS }

func (w *fakeWriter) Append(p []byte) (int64, time.Duration, error) {
	w.fs.calls = append(w.fs.calls, "Append "+string(p))
	return 512, 3 * time.Microsecond, errFake
}

func (w *fakeWriter) Sync() (time.Duration, error) {
	w.fs.calls = append(w.fs.calls, "Sync")
	return 5 * time.Microsecond, nil
}

func (w *fakeWriter) Close() (time.Duration, error) {
	w.fs.calls = append(w.fs.calls, "Close")
	return 11 * time.Microsecond, errFake
}

func (w *fakeWriter) Offset() int64 {
	w.fs.calls = append(w.fs.calls, "Offset")
	return 777
}

type fakeReader struct{ fs *fakeFS }

func (r *fakeReader) ReadAt(p []byte, off int64) (int, time.Duration, error) {
	r.fs.calls = append(r.fs.calls, "ReadAt")
	copy(p, "xyz")
	return 3, 13 * time.Microsecond, errFake
}

func (r *fakeReader) Size() int64 {
	r.fs.calls = append(r.fs.calls, "ReaderSize")
	return 3
}

// TestTimedFSForwards checks that the wrapper forwards every call and
// hands back every result unchanged, recording one span per call.
func TestTimedFSForwards(t *testing.T) {
	dev, err := ssd.NewDevice(ssd.DefaultConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeFS{dev: dev}
	tr := newTracer()
	tr.on.Store(true)
	fs := newProbe(tr).wrapFS(fake)

	w, err := fs.Create("f")
	if err != nil || w == nil {
		t.Fatalf("Create = %v, %v", w, err)
	}
	if w, err := fs.Create("bad"); w != nil || !errors.Is(err, errFake) {
		t.Fatalf("failed Create = %v, %v; want nil, errFake", w, err)
	}
	if off, cost, err := w.Append([]byte("rec")); off != 512 || cost != 3*time.Microsecond || !errors.Is(err, errFake) {
		t.Errorf("Append = %d, %v, %v", off, cost, err)
	}
	if cost, err := w.Sync(); cost != 5*time.Microsecond || err != nil {
		t.Errorf("Sync = %v, %v", cost, err)
	}
	if off := w.Offset(); off != 777 {
		t.Errorf("Offset = %d", off)
	}
	if cost, err := w.Close(); cost != 11*time.Microsecond || !errors.Is(err, errFake) {
		t.Errorf("Close = %v, %v", cost, err)
	}
	r, err := fs.Open("f")
	if err != nil || r == nil {
		t.Fatalf("Open = %v, %v", r, err)
	}
	if r, err := fs.Open("bad"); r != nil || !errors.Is(err, errFake) {
		t.Fatalf("failed Open = %v, %v; want nil, errFake", r, err)
	}
	buf := make([]byte, 8)
	if n, cost, err := r.ReadAt(buf, 4); n != 3 || cost != 13*time.Microsecond || !errors.Is(err, errFake) || string(buf[:n]) != "xyz" {
		t.Errorf("ReadAt = %d, %v, %v, %q", n, cost, err, buf[:n])
	}
	if n := r.Size(); n != 3 {
		t.Errorf("reader Size = %d", n)
	}
	if cost, err := fs.Remove("f"); cost != 7*time.Millisecond || !errors.Is(err, errFake) {
		t.Errorf("Remove = %v, %v", cost, err)
	}
	if n, err := fs.Size("f"); n != 4242 || !errors.Is(err, errFake) {
		t.Errorf("Size = %d, %v", n, err)
	}
	if names := fs.List(); !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Errorf("List = %v", names)
	}
	if n := fs.UsedBytes(); n != 99 {
		t.Errorf("UsedBytes = %d", n)
	}
	if d := fs.Device(); d != dev {
		t.Errorf("Device = %p, want %p", d, dev)
	}

	want := []string{"Create f", "Create bad", "Append rec", "Sync", "Offset", "Close",
		"Open f", "Open bad", "ReadAt", "ReaderSize", "Remove f", "Size f", "List", "UsedBytes", "Device"}
	if !reflect.DeepEqual(fake.calls, want) {
		t.Errorf("forwarded calls = %q\nwant %q", fake.calls, want)
	}
	spans := tr.snapshot()
	if len(spans) != len(want) {
		t.Fatalf("recorded %d spans for %d calls", len(spans), len(want))
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if s := spans[2]; s.Name != spanFSAppend || s.Sim != 3*time.Microsecond || s.Bytes != 3 {
		t.Errorf("append span = %+v", s)
	}
	if s := spans[8]; s.Name != spanFSReadAt || s.Sim != 13*time.Microsecond || s.Bytes != 3 {
		t.Errorf("read span = %+v", s)
	}
}

// TestTimedFSParents checks that a blockfs span is tied to the call in
// flight when one goroutine makes every call, and to none otherwise.
func TestTimedFSParents(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	fs := newProbe(tr).wrapFS(&fakeFS{})
	done := tr.call(spanCoreGet, true)
	fs.List()
	done(0)
	fs.List() // no call in flight
	done = tr.call(spanCoreGet, false)
	fs.List() // concurrent pass: the call in flight is unknown
	done(0)
	spans := tr.snapshot()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	if s := spans[1]; s.Parent != 1 || s.Req != spans[0].Req {
		t.Errorf("child of a single-goroutine call = %+v, want parent 1, req %d", s, spans[0].Req)
	}
	for _, i := range []int{2, 4} {
		if s := spans[i]; s.Parent != 0 || s.Req != 0 {
			t.Errorf("span %d = %+v, want no parent and no request", i, s)
		}
	}
}

// TestDevCounter checks the device hooks count every page program and
// page read.
func TestDevCounter(t *testing.T) {
	dev, err := ssd.NewDevice(ssd.DefaultConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	p := newProbe(nil)
	p.hookDevice(dev)
	blk, err := dev.AllocBlock(ssd.OwnerNative)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, dev.Config().PageSize)
	for i := 0; i < 3; i++ {
		if _, err := dev.ProgramPage(ssd.OwnerNative, blk, i, page); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := dev.ReadPage(ssd.OwnerNative, blk, i); err != nil {
			t.Fatal(err)
		}
	}
	got := p.dev.load()
	ps := int64(dev.Config().PageSize)
	if want := (devCounts{3, 3 * ps, 2, 2 * ps}); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	if st := dev.Stats(); st.SysWriteBytes != got.programBytes || st.SysReadBytes != got.readBytes {
		t.Errorf("hooks counted %d/%d bytes, device %d/%d", got.programBytes, got.readBytes, st.SysWriteBytes, st.SysReadBytes)
	}
}
