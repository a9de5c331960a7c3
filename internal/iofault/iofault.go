// Package iofault is the storage layer's VFS seam. Every durable byte
// the WAL writer, checkpoint store, and recovery reader move goes
// through an FS; production code uses the OS passthrough, and the
// fault tests substitute a FaultFS whose deterministic,
// seed-driven Injector can fail any single operation — EIO, ENOSPC, a
// short write, a failed fsync, a torn write — on a scripted or random
// schedule. The point is to make "durable" a tested contract instead
// of a happy-path property: the same differential discipline the
// conformance harness applies to semiring choice, applied to I/O
// faults.
package iofault

import (
	"fmt"
	"io/fs"
	"os"
)

// Op classifies a filesystem operation for fault matching.
type Op uint8

const (
	// OpAny matches every operation in a Rule.
	OpAny Op = iota
	// OpOpen covers OpenFile and CreateTemp.
	OpOpen
	// OpRead covers File.ReadAt and ReadFile.
	OpRead
	// OpWrite covers File.Write and WriteFile.
	OpWrite
	// OpSync covers File.Sync and SyncDir (fsync failure lives here).
	OpSync
	// OpRename covers Rename (checkpoint publication).
	OpRename
	// OpRemove covers Remove (segment/checkpoint retirement).
	OpRemove
	// OpTruncate covers Truncate (torn-tail repair).
	OpTruncate
	// OpMkdir covers MkdirAll.
	OpMkdir
	// OpReadDir covers ReadDir (segment/checkpoint discovery).
	OpReadDir
	// OpStat covers Stat (log sizing).
	OpStat
)

func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	case OpMkdir:
		return "mkdir"
	case OpReadDir:
		return "readdir"
	case OpStat:
		return "stat"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// File is the slice of *os.File the durability layer uses.
type File interface {
	Write(p []byte) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem surface the durability layer writes through.
// Implementations must be safe for concurrent use.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm fs.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm fs.FileMode) error
	Remove(name string) error
	Rename(oldpath, newpath string) error
	Truncate(name string, size int64) error
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs a directory so renames and creations in it are
	// durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
