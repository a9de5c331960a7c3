package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"adjarray/internal/iofault"
)

// countingFS is a pass-through iofault.FS that counts and times what
// the durability layer does to the disk. It is installed through the
// ingest options' filesystem seam, so the numbers are taken from outside
// the WAL and checkpoint code.
//
// Everything the durable view does to the filesystem happens under its
// one lock, so a checkpoint is a contiguous run of operations: it opens
// with CreateTemp("ckpt-*.tmp") and is over at the next write to a WAL
// segment. Operations are charged to the append path or to the
// checkpoint they belong to on that basis.
type countingFS struct {
	inner iofault.FS
	// observe, when set, is told of every timed operation: the traced
	// replay turns them into spans.
	observe func(op fsOp)

	mu     sync.Mutex
	inCkpt bool
	appendPath,
	checkpoints fsCounts
	segmentSyncs int64 // append-path Sync calls on wal-*.seg files
	syncTimes    []time.Duration
	writeTimes   []time.Duration
	ckpts        []fsCheckpoint
}

// fsCounts are the counts that repeat exactly for a given script.
type fsCounts struct {
	Writes, Syncs, DirSyncs int64
	Bytes                   int64
}

// fsCheckpoint is what one checkpoint cost the filesystem.
type fsCheckpoint struct {
	Bytes int64
	Busy  time.Duration // time inside filesystem calls
}

// fsOp is one timed filesystem call.
type fsOp struct {
	Name       string // "write", "sync", "syncdir", "rename", ...
	Checkpoint int    // index of the checkpoint it belongs to, -1 for the append path
	Start, End time.Time
}

func newCountingFS() *countingFS { return &countingFS{inner: iofault.OS} }

func isSegment(path string) bool {
	base := filepath.Base(path)
	return strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".seg")
}

// record charges one finished call. path is "" for calls that name no
// file of their own (directory syncs).
func (c *countingFS) record(name, path string, bytes int, start time.Time) {
	end := time.Now()
	c.mu.Lock()
	switch {
	case name == "createtemp" && strings.HasPrefix(filepath.Base(path), "ckpt-"):
		c.inCkpt = true
		c.ckpts = append(c.ckpts, fsCheckpoint{})
	case c.inCkpt && (name == "write" || name == "open") && isSegment(path):
		c.inCkpt = false
	}
	op := fsOp{Name: name, Checkpoint: -1, Start: start, End: end}
	counts := &c.appendPath
	if c.inCkpt {
		op.Checkpoint = len(c.ckpts) - 1
		counts = &c.checkpoints
		ck := &c.ckpts[op.Checkpoint]
		ck.Bytes += int64(bytes)
		ck.Busy += end.Sub(start)
	}
	switch name {
	case "write":
		counts.Writes++
		counts.Bytes += int64(bytes)
		if !c.inCkpt {
			c.writeTimes = append(c.writeTimes, end.Sub(start))
		}
	case "sync":
		counts.Syncs++
		if !c.inCkpt {
			if isSegment(path) {
				c.segmentSyncs++
			}
			c.syncTimes = append(c.syncTimes, end.Sub(start))
		}
	case "syncdir":
		counts.DirSyncs++
	}
	observe := c.observe
	c.mu.Unlock()
	if observe != nil {
		observe(op)
	}
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	start := time.Now()
	f, err := c.inner.OpenFile(name, flag, perm)
	c.record("open", name, 0, start)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	start := time.Now()
	f, err := c.inner.CreateTemp(dir, pattern)
	c.record("createtemp", pattern, 0, start)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) ReadFile(name string) ([]byte, error) { return c.inner.ReadFile(name) }

func (c *countingFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	start := time.Now()
	err := c.inner.WriteFile(name, data, perm)
	c.record("write", name, len(data), start)
	return err
}

func (c *countingFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }

func (c *countingFS) MkdirAll(path string, perm fs.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}

func (c *countingFS) Remove(name string) error {
	start := time.Now()
	err := c.inner.Remove(name)
	c.record("remove", name, 0, start)
	return err
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := c.inner.Rename(oldpath, newpath)
	c.record("rename", newpath, 0, start)
	return err
}

func (c *countingFS) Truncate(name string, size int64) error { return c.inner.Truncate(name, size) }

func (c *countingFS) Stat(name string) (fs.FileInfo, error) { return c.inner.Stat(name) }

func (c *countingFS) SyncDir(dir string) error {
	start := time.Now()
	err := c.inner.SyncDir(dir)
	c.record("syncdir", "", 0, start)
	return err
}

// countingFile times the two calls that matter on an open file.
type countingFile struct {
	iofault.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.record("write", f.Name(), n, start)
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.record("sync", f.Name(), 0, start)
	return err
}

// snapshotCounts returns the exact counts so far.
func (c *countingFS) snapshotCounts() (appendPath, checkpoints fsCounts, segmentSyncs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendPath, c.checkpoints, c.segmentSyncs
}
