package main

import (
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/vfs"
)

// File classes the counting filesystem tells apart by name suffix.
const (
	classLog = iota
	classSST
	classCLIdx
	classOther
	numClasses
)

func classOf(name string) int {
	switch {
	case strings.HasSuffix(name, ".log"):
		return classLog
	case strings.HasSuffix(name, ".sst"):
		return classSST
	case strings.HasSuffix(name, ".clidx"):
		return classCLIdx
	default:
		return classOther
	}
}

// ioCounters are the cumulative per-class totals of a countingFS.
// syncNanos only advances while timing is on.
type ioCounters struct {
	writeBytes, writeCalls [numClasses]atomic.Int64
	syncCalls, syncNanos   [numClasses]atomic.Int64
}

// ioSnap is a plain copy of ioCounters.
type ioSnap struct {
	writeBytes, writeCalls [numClasses]int64
	syncCalls, syncNanos   [numClasses]int64
}

func (c *ioCounters) snap() ioSnap {
	var s ioSnap
	for i := 0; i < numClasses; i++ {
		s.writeBytes[i] = c.writeBytes[i].Load()
		s.writeCalls[i] = c.writeCalls[i].Load()
		s.syncCalls[i] = c.syncCalls[i].Load()
		s.syncNanos[i] = c.syncNanos[i].Load()
	}
	return s
}

func (s ioSnap) sub(o ioSnap) ioSnap {
	for i := 0; i < numClasses; i++ {
		s.writeBytes[i] -= o.writeBytes[i]
		s.writeCalls[i] -= o.writeCalls[i]
		s.syncCalls[i] -= o.syncCalls[i]
		s.syncNanos[i] -= o.syncNanos[i]
	}
	return s
}

func (s ioSnap) add(o ioSnap) ioSnap {
	for i := 0; i < numClasses; i++ {
		s.writeBytes[i] += o.writeBytes[i]
		s.writeCalls[i] += o.writeCalls[i]
		s.syncCalls[i] += o.syncCalls[i]
		s.syncNanos[i] += o.syncNanos[i]
	}
	return s
}

func sum(a [numClasses]int64) int64 {
	var n int64
	for _, v := range a {
		n += v
	}
	return n
}

// threadIO is the I/O time one pinned OS thread spent inside the
// filesystem. A traced caller locks its goroutine to its thread, claims
// a slot with its thread id, and reads the slot before and after each
// call into the store: the difference is the filesystem time that call
// paid for in the foreground, excluding background flush and compaction
// I/O, which runs on other threads.
type threadIO struct {
	tid                     atomic.Int64
	writeNs, syncNs, readNs atomic.Int64
	readCalls               atomic.Int64
}

func (t *threadIO) snap() threadIOSnap {
	if t == nil {
		return threadIOSnap{}
	}
	return threadIOSnap{
		writeNs: t.writeNs.Load(), syncNs: t.syncNs.Load(), readNs: t.readNs.Load(),
		readCalls: t.readCalls.Load(),
	}
}

type threadIOSnap struct {
	writeNs, syncNs, readNs int64
	readCalls               int64
}

func (s threadIOSnap) sub(o threadIOSnap) threadIOSnap {
	return threadIOSnap{
		writeNs: s.writeNs - o.writeNs, syncNs: s.syncNs - o.syncNs, readNs: s.readNs - o.readNs,
		readCalls: s.readCalls - o.readCalls,
	}
}

const maxPinned = 8

// countingFS wraps a vfs.FS, counting written bytes, write calls and
// syncs per file class and, while timing is on, timing every Write,
// Sync and ReadAt and charging it to the pinned thread that made it, if
// any.
type countingFS struct {
	inner  vfs.FS
	c      *ioCounters
	timing *atomic.Bool
	slots  *[maxPinned]threadIO
}

// ioRecorder is the shared state behind one or more countingFS
// instances (a sharded store wraps each shard's filesystem).
type ioRecorder struct {
	c      ioCounters
	timing atomic.Bool
	slots  [maxPinned]threadIO
}

func (r *ioRecorder) wrap(fs vfs.FS) *countingFS {
	return &countingFS{inner: fs, c: &r.c, timing: &r.timing, slots: &r.slots}
}

// pin locks the calling goroutine to its OS thread and claims a slot
// for it. The caller must call unpin on the same goroutine.
func (r *ioRecorder) pin() *threadIO {
	runtime.LockOSThread()
	tid := int64(syscall.Gettid())
	for i := range r.slots {
		if r.slots[i].tid.CompareAndSwap(0, tid) {
			return &r.slots[i]
		}
	}
	runtime.UnlockOSThread()
	return nil
}

func (r *ioRecorder) unpin(t *threadIO) {
	if t == nil {
		return
	}
	t.tid.Store(0)
	runtime.UnlockOSThread()
}

// slotFor returns the slot of the calling thread, or nil.
func (fs *countingFS) slotFor() *threadIO {
	tid := int64(syscall.Gettid())
	for i := range fs.slots {
		if fs.slots[i].tid.Load() == tid {
			return &fs.slots[i]
		}
	}
	return nil
}

func (fs *countingFS) Create(name string) (vfs.File, error) {
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs, class: classOf(name)}, nil
}

func (fs *countingFS) Open(name string) (vfs.File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs, class: classOf(name)}, nil
}

func (fs *countingFS) Remove(name string) error             { return fs.inner.Remove(name) }
func (fs *countingFS) Rename(oldname, newname string) error { return fs.inner.Rename(oldname, newname) }
func (fs *countingFS) List(prefix string) ([]string, error) { return fs.inner.List(prefix) }
func (fs *countingFS) Exists(name string) bool              { return fs.inner.Exists(name) }

// resident sums the sizes of every file the filesystem holds now.
func (fs *countingFS) resident() int64 {
	names, err := fs.inner.List("")
	if err != nil {
		return 0
	}
	var n int64
	for _, name := range names {
		f, err := fs.inner.Open(name)
		if err != nil {
			continue // removed by a concurrent compaction
		}
		if sz, err := f.Size(); err == nil {
			n += sz
		}
		f.Close()
	}
	return n
}

type countingFile struct {
	vfs.File
	fs    *countingFS
	class int
}

func (f *countingFile) Write(p []byte) (int, error) {
	if !f.fs.timing.Load() {
		n, err := f.File.Write(p)
		f.fs.c.writeBytes[f.class].Add(int64(n))
		f.fs.c.writeCalls[f.class].Add(1)
		return n, err
	}
	t0 := time.Now()
	n, err := f.File.Write(p)
	d := int64(time.Since(t0))
	f.fs.c.writeBytes[f.class].Add(int64(n))
	f.fs.c.writeCalls[f.class].Add(1)
	if s := f.fs.slotFor(); s != nil {
		s.writeNs.Add(d)
	}
	return n, err
}

func (f *countingFile) Sync() error {
	if !f.fs.timing.Load() {
		f.fs.c.syncCalls[f.class].Add(1)
		return f.File.Sync()
	}
	t0 := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(t0))
	f.fs.c.syncCalls[f.class].Add(1)
	f.fs.c.syncNanos[f.class].Add(d)
	if s := f.fs.slotFor(); s != nil {
		s.syncNs.Add(d)
	}
	return err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.fs.timing.Load() {
		return f.File.ReadAt(p, off)
	}
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	d := int64(time.Since(t0))
	if s := f.fs.slotFor(); s != nil {
		s.readNs.Add(d)
		s.readCalls.Add(1)
	}
	return n, err
}
