// Package fsim abstracts the filesystem under the durable store so that live
// I/O failures — failed fsyncs, short writes, ENOSPC windows, torn renames —
// become injectable and testable instead of theoretical. It has exactly two
// implementations: OS(), a zero-overhead passthrough to the os package that
// production always runs on, and FaultFS, which wraps any FS with a
// deterministic, seedable fault schedule so the store's failure model can be
// exercised (and regression-tested under -race) without real disk faults.
//
// The package also owns the error taxonomy the store's graceful-degradation
// logic is built on: Transient reports whether an error names a condition
// that can clear on its own (ENOSPC once space is freed,
// EINTR-class interruptions), as opposed to a permanent fault (EIO, a closed
// descriptor) that retrying cannot fix.
package fsim

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// File is the narrow slice of *os.File the store's write paths need: append,
// durability barrier, pull-back of unsynced bytes, close.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS is the filesystem surface of the durable store's data path. Every
// operation that touches a WAL, segment, dictionary log or manifest goes
// through it, so a fault-injecting implementation sees — and can fail — each
// one.
type FS interface {
	// OpenFile opens path with os.OpenFile semantics.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// WriteFile writes data to path, creating or truncating it.
	WriteFile(path string, data []byte, perm os.FileMode) error
	// Rename atomically (on a healthy filesystem) replaces newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// ReadDir lists the directory entries of path.
	ReadDir(path string) ([]os.DirEntry, error)
	// MkdirAll creates path and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// Truncate cuts path to size bytes.
	Truncate(path string, size int64) error
	// SyncPath fsyncs path (a file or a directory) by open-sync-close; the
	// store uses it for the publish-then-sync-parent pattern.
	SyncPath(path string) error
}

// osFS is the passthrough production implementation.
type osFS struct{}

// OS returns the passthrough filesystem backed directly by the os package.
func OS() FS { return osFS{} }

func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) SyncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// transientMark wraps an error to force Transient(err) == true regardless of
// the underlying errno — the per-path "error class" hook fault schedules use.
type transientMark struct{ err error }

func (t transientMark) Error() string   { return t.err.Error() }
func (t transientMark) Unwrap() error   { return t.err }
func (t transientMark) Transient() bool { return true }

// AsTransient marks err as transient for Transient, whatever its underlying
// class. nil stays nil.
func AsTransient(err error) error {
	if err == nil {
		return nil
	}
	return transientMark{err: err}
}

// Transient reports whether err names a fault that can clear without
// intervention — disk-full conditions that freed space relieves, and
// interrupted-call errnos — as opposed to a permanent fault
// that retrying cannot fix. The store's bounded-retry and degradation policy
// is built on this split: transient faults are retried and, when they
// persist, surfaced per-operation while the store stays healthy; permanent
// faults move the store to degraded read-only.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.ETIMEDOUT)
}
