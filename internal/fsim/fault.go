package fsim

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
)

// Op classifies filesystem operations for fault matching.
type Op uint8

const (
	// OpAny matches every operation.
	OpAny Op = iota
	// OpOpen matches FS.OpenFile.
	OpOpen
	// OpRead matches FS.ReadFile.
	OpRead
	// OpWrite matches File.Write and FS.WriteFile.
	OpWrite
	// OpSync matches File.Sync and FS.SyncPath.
	OpSync
	// OpRename matches FS.Rename (on the destination path).
	OpRename
	// OpRemove matches FS.Remove.
	OpRemove
	// OpReadDir matches FS.ReadDir.
	OpReadDir
	// OpMkdir matches FS.MkdirAll.
	OpMkdir
	// OpTruncate matches File.Truncate and FS.Truncate.
	OpTruncate
	// OpClose matches File.Close.
	OpClose
)

var opNames = [...]string{"any", "open", "read", "write", "sync", "rename", "remove", "readdir", "mkdir", "truncate", "close"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Rule is one entry of a fault schedule. Matching is deterministic: each rule
// keeps its own count of the operations it matches (by Op class and path
// substring), and injects its fault while that count lies in the half-open
// window [From, To) — so "fail the 3rd sync of the shard WAL" is
// {Op: OpSync, Path: "shard-000", From: 2}, and "ENOSPC on writes 5..9 that
// then clears" is {Op: OpWrite, From: 5, To: 10, Err: syscall.ENOSPC}.
type Rule struct {
	// Op selects the operation class; OpAny matches all.
	Op Op
	// Path is a substring the full path must contain; empty matches all.
	Path string
	// From and To bound the rule's own match count, half-open; To == 0 means
	// the single count From.
	From, To uint64
	// Err is the injected error. Its class (Transient) decides whether the
	// store treats the fault as retryable or permanent; wrap with AsTransient
	// to force the transient class on an arbitrary error.
	Err error
	// Short makes a matched write accept roughly half its payload before
	// failing — a torn frame or partial segment on the real file.
	Short bool
	// Torn makes a matched rename copy a prefix of the source to the
	// destination before failing — a non-atomic rename caught mid-publish.
	Torn bool
}

func (r Rule) window() (uint64, uint64) {
	if r.To == 0 {
		return r.From, r.From + 1
	}
	return r.From, r.To
}

func (r Rule) matches(op Op, path string) bool {
	if r.Op != OpAny && r.Op != op {
		return false
	}
	return r.Path == "" || strings.Contains(path, r.Path)
}

// FaultFS wraps an inner FS with a deterministic fault schedule. It is safe
// for concurrent use; rule counters advance under one lock, so a given
// schedule injects the same faults at the same operation ranks regardless of
// goroutine interleaving of *other* rules (within one rule, concurrent
// matching operations race for the window slots — acceptable, since chaos
// assertions never depend on which caller drew the fault).
type FaultFS struct {
	inner FS

	mu    sync.Mutex
	rules []*ruleState
	log   []string
}

type ruleState struct {
	Rule
	count uint64
}

// NewFaultFS builds a fault-injecting view of inner under the given schedule.
func NewFaultFS(inner FS, rules ...Rule) *FaultFS {
	f := &FaultFS{inner: inner}
	for _, r := range rules {
		f.rules = append(f.rules, &ruleState{Rule: r})
	}
	return f
}

// Injections returns a description of every fault injected so far, in order —
// printed by failing chaos tests so a schedule's effect is visible.
func (f *FaultFS) Injections() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.log...)
}

// check advances every matching rule's counter and returns the first rule
// whose window covers this operation, or nil.
func (f *FaultFS) check(op Op, path string) *Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	var hit *Rule
	for _, rs := range f.rules {
		if !rs.matches(op, path) {
			continue
		}
		from, to := rs.window()
		n := rs.count
		rs.count++
		if hit == nil && n >= from && n < to {
			hit = &rs.Rule
		}
	}
	if hit != nil && len(f.log) < 512 {
		f.log = append(f.log, fmt.Sprintf("%s %s: %v", op, path, hit.Err))
	}
	return hit
}

func (f *FaultFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	if r := f.check(OpOpen, path); r != nil {
		return nil, r.Err
	}
	inner, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, path: path, inner: inner}, nil
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if r := f.check(OpRead, path); r != nil {
		return nil, r.Err
	}
	return f.inner.ReadFile(path)
}

func (f *FaultFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	if r := f.check(OpWrite, path); r != nil {
		if r.Short && len(data) > 1 {
			// Leave a torn file behind, exactly as a mid-write crash or a
			// filled disk would.
			_ = f.inner.WriteFile(path, data[:len(data)/2], perm)
		}
		return r.Err
	}
	return f.inner.WriteFile(path, data, perm)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if r := f.check(OpRename, newpath); r != nil {
		if r.Torn {
			// A non-atomic rename caught mid-copy: the destination exists but
			// holds only a prefix of the source.
			if buf, err := f.inner.ReadFile(oldpath); err == nil && len(buf) > 1 {
				_ = f.inner.WriteFile(newpath, buf[:len(buf)/2], 0o644)
			}
		}
		return r.Err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	if r := f.check(OpRemove, path); r != nil {
		return r.Err
	}
	return f.inner.Remove(path)
}

func (f *FaultFS) ReadDir(path string) ([]os.DirEntry, error) {
	if r := f.check(OpReadDir, path); r != nil {
		return nil, r.Err
	}
	return f.inner.ReadDir(path)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if r := f.check(OpMkdir, path); r != nil {
		return r.Err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) Truncate(path string, size int64) error {
	if r := f.check(OpTruncate, path); r != nil {
		return r.Err
	}
	return f.inner.Truncate(path, size)
}

func (f *FaultFS) SyncPath(path string) error {
	if r := f.check(OpSync, path); r != nil {
		return r.Err
	}
	return f.inner.SyncPath(path)
}

// faultFile threads the schedule into per-file operations.
type faultFile struct {
	fs    *FaultFS
	path  string
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if r := ff.fs.check(OpWrite, ff.path); r != nil {
		if r.Short && len(p) > 1 {
			n, _ := ff.inner.Write(p[:len(p)/2])
			return n, r.Err
		}
		return 0, r.Err
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if r := ff.fs.check(OpSync, ff.path); r != nil {
		return r.Err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if r := ff.fs.check(OpTruncate, ff.path); r != nil {
		return r.Err
	}
	return ff.inner.Truncate(size)
}

func (ff *faultFile) Close() error {
	if r := ff.fs.check(OpClose, ff.path); r != nil {
		return r.Err
	}
	return ff.inner.Close()
}

// RandomSchedule derives a deterministic fault schedule from seed: a mix of
// transient ENOSPC windows (some with short writes), occasional permanent
// EIO faults, torn renames on WAL publishes, and cleanup-path removal
// failures, spread over the operation ranks a small durable workload visits.
// The same seed always yields the same schedule, so a failing chaos run
// reproduces from its logged seed alone.
func RandomSchedule(seed int64) []Rule {
	rng := rand.New(rand.NewSource(seed))
	var rules []Rule
	paths := []string{"", ".wal", ".seg", "dict", "shard-000"}
	pick := func() string { return paths[rng.Intn(len(paths))] }

	// 1-3 transient ENOSPC windows over writes or syncs that later clear.
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		op := OpWrite
		if rng.Intn(3) == 0 {
			op = OpSync
		}
		from := uint64(rng.Intn(60))
		rules = append(rules, Rule{
			Op: op, Path: pick(),
			From: from, To: from + 1 + uint64(rng.Intn(5)),
			Err:   syscall.ENOSPC,
			Short: op == OpWrite && rng.Intn(2) == 0,
		})
	}
	// Sometimes a torn rename on a WAL generation publish.
	if rng.Intn(3) == 0 {
		rules = append(rules, Rule{
			Op: OpRename, Path: ".wal",
			From: uint64(rng.Intn(4)),
			Err:  syscall.ENOSPC, Torn: true,
		})
	}
	// Sometimes cleanup failures: removals that leak files (warnings, never
	// degradation — Remove is not on the ack path).
	if rng.Intn(3) == 0 {
		from := uint64(rng.Intn(6))
		rules = append(rules, Rule{
			Op: OpRemove, From: from, To: from + 1 + uint64(rng.Intn(3)),
			Err: syscall.EACCES,
		})
	}
	// Occasionally one permanent fault on the write path — the store must
	// land in degraded read-only, not corrupt anything.
	if rng.Intn(4) == 0 {
		op := OpWrite
		if rng.Intn(4) == 0 {
			op = OpRead // hits recovery's segment and log reads
		}
		rules = append(rules, Rule{
			Op: op, Path: pick(),
			From: uint64(rng.Intn(80)),
			Err:  syscall.EIO,
		})
	}
	return rules
}
