// Package errfs is the injectable filesystem under the daemon's
// durability layer (WAL journal + checkpoint-blob store). Production
// code runs on OS, a trivial passthrough to the os package; chaos tests
// swap in a Faulty wrapper that injects the disk failures real machines
// produce — ENOSPC mid-append, a Sync that fails, a write torn halfway,
// bit rot appearing after a "successful" rename — and assert the daemon
// degrades instead of corrupting state or crashing.
//
// The interface is deliberately the small slice of os the durability
// layer actually uses, plus SyncDir, which os does not offer directly
// but crash-safe rename protocols require: an fsync of the parent
// directory is what makes a completed rename durable.
package errfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the open-file surface the WAL needs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
}

// FS is the filesystem surface under the durability layer.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory, making previously completed renames
	// and creations in it durable.
	SyncDir(name string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)                 { return os.ReadFile(name) }
func (osFS) WriteFile(name string, b []byte, p fs.FileMode) error { return os.WriteFile(name, b, p) }
func (osFS) Rename(oldpath, newpath string) error                 { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error         { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)           { return os.ReadDir(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
