// Package seqdb provides the sequence-database substrate used by every miner
// in this repository. A program execution trace is modelled as a Sequence of
// Events; a set of traces (for example, one trace per test case of a test
// suite) forms a Database.
//
// Events are interned: the textual name of a method invocation (for example
// "TxManager.begin") is mapped to a small integer EventID by a Dictionary.
// All mining algorithms operate on EventIDs; names are only materialised when
// results are rendered for humans.
package seqdb

import (
	"fmt"
	"sync"
)

// EventID is the interned identifier of a distinct event (a method
// invocation, system call, screen id, alarm code, ...). IDs are dense and
// start at 0, which lets hot paths index slices by EventID.
type EventID int32

// NoEvent is returned by lookups that fail to resolve a name.
const NoEvent EventID = -1

// numDictShards is the stripe count of the interning table. Streaming ingest
// interns from many producer goroutines at once with a high hit rate; 16
// hash-striped read-write locks keep those hits from serialising on a single
// mutex while staying small enough that Import/Clone (which take every
// stripe) remain cheap.
const numDictShards = 16

// dictShard is one stripe of the name table, padded so neighbouring stripes'
// locks never share a cache line.
type dictShard struct {
	mu     sync.RWMutex
	byName map[string]EventID
	_      [32]byte
}

// Dictionary interns event names to EventIDs and back. The zero value is not
// ready to use; call NewDictionary.
//
// A Dictionary is safe for concurrent use: the streaming ingester interns
// fresh traffic on caller goroutines while shard goroutines consult Size
// during index flushes. The name table is striped across hash shards so
// concurrent hits (the overwhelming case in steady-state ingest) proceed in
// parallel; only fresh assignments serialise, on the assign lock that keeps
// ids dense and in discovery order. Mining hot paths never touch the
// dictionary (they operate on EventIDs), so no lock here is inside the
// profiles that matter.
type Dictionary struct {
	shards [numDictShards]dictShard

	// assignMu guards names and the hook. Lock order is shard lock first,
	// assign lock second (Import takes all shard locks, in index order, before
	// the assign lock).
	assignMu sync.RWMutex
	names    []string

	// onIntern, when set, observes every fresh id assignment while the assign
	// lock is held, so observers see assignments in exact id order. The
	// durability layer uses it to write dictionary WAL records.
	onIntern func(id EventID, name string)
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	d := &Dictionary{}
	for i := range d.shards {
		d.shards[i].byName = make(map[string]EventID)
	}
	return d
}

// dictShardOf hashes a name onto its stripe (FNV-1a, truncated).
func dictShardOf(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h & (numDictShards - 1)
}

// Intern returns the EventID for name, assigning a fresh one if the name has
// not been seen before.
func (d *Dictionary) Intern(name string) EventID {
	sh := &d.shards[dictShardOf(name)]
	sh.mu.RLock()
	id, ok := sh.byName[name]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.byName[name]; ok {
		return id
	}
	// Fresh name: the assign lock makes (id allocation, hook invocation)
	// atomic, so the durability hook sees assignments in exact id order even
	// when other shards assign concurrently. The id is published to the shard
	// map only after the hook returns — no reader can observe (and persist a
	// trace against) an id whose dictionary record is not yet logged.
	d.assignMu.Lock()
	id = EventID(len(d.names))
	d.names = append(d.names, name)
	if d.onIntern != nil {
		d.onIntern(id, name)
	}
	d.assignMu.Unlock()
	sh.byName[name] = id
	return id
}

// OnIntern installs (or, with nil, removes) a hook invoked for every fresh id
// assignment. The hook runs with the dictionary's assign lock held, so
// invocations arrive serialised in exact id order even under concurrent
// interning; it must not call back into the dictionary. The durability layer
// uses it to append dictionary records to its write-ahead log before any
// trace record referencing the new id can be written.
func (d *Dictionary) OnIntern(hook func(id EventID, name string)) {
	d.assignMu.Lock()
	defer d.assignMu.Unlock()
	d.onIntern = hook
}

// Lookup returns the EventID previously assigned to name, or NoEvent if the
// name was never interned.
func (d *Dictionary) Lookup(name string) EventID {
	sh := &d.shards[dictShardOf(name)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if id, ok := sh.byName[name]; ok {
		return id
	}
	return NoEvent
}

// Name returns the textual name of id. Unknown ids render as "ev<id>" so that
// results remain printable even when a dictionary is absent or incomplete.
func (d *Dictionary) Name(id EventID) string {
	if d == nil {
		return fmt.Sprintf("ev%d", int(id))
	}
	d.assignMu.RLock()
	defer d.assignMu.RUnlock()
	if id < 0 || int(id) >= len(d.names) {
		return fmt.Sprintf("ev%d", int(id))
	}
	return d.names[id]
}

// Size returns the number of distinct interned events.
func (d *Dictionary) Size() int {
	if d == nil {
		return 0
	}
	d.assignMu.RLock()
	defer d.assignMu.RUnlock()
	return len(d.names)
}

// Names returns a copy of all interned names, indexed by EventID.
func (d *Dictionary) Names() []string {
	d.assignMu.RLock()
	defer d.assignMu.RUnlock()
	out := make([]string, len(d.names))
	copy(out, d.names)
	return out
}

// Clone returns an independent copy of the dictionary.
func (d *Dictionary) Clone() *Dictionary {
	c := NewDictionary()
	c.names = d.Names()
	for i, n := range c.names {
		c.shards[dictShardOf(n)].byName[n] = EventID(i)
	}
	return c
}

// Export returns the interned names in id-assignment order — index i is the
// name of EventID(i). This, not SortedNames, is the persistence format: ids
// are positional, so a save/load cycle must replay names in the exact order
// they were assigned or every stored trace would silently remap its events.
func (d *Dictionary) Export() []string { return d.Names() }

// Import replays an exported name list into the dictionary, reproducing the
// original id assignment. The dictionary's existing contents must be a prefix
// of names (an empty dictionary always qualifies); the remainder is appended.
// A mismatched prefix or a duplicate inside names is an error, because either
// would remap ids out from under already-encoded traces. Import never invokes
// the OnIntern hook: imported names are by definition already persisted.
func (d *Dictionary) Import(names []string) error {
	// Quiesce the whole dictionary: every stripe in index order, then the
	// assign lock — the same shard-before-assign order Intern uses.
	for i := range d.shards {
		d.shards[i].mu.Lock()
		defer d.shards[i].mu.Unlock()
	}
	d.assignMu.Lock()
	defer d.assignMu.Unlock()
	if len(d.names) > len(names) {
		return fmt.Errorf("seqdb: dictionary import: %d existing names exceed the %d imported", len(d.names), len(names))
	}
	for i, n := range d.names {
		if n != names[i] {
			return fmt.Errorf("seqdb: dictionary import: id %d is %q here but %q in the import", i, n, names[i])
		}
	}
	for i := len(d.names); i < len(names); i++ {
		n := names[i]
		sh := &d.shards[dictShardOf(n)]
		if prev, ok := sh.byName[n]; ok {
			return fmt.Errorf("seqdb: dictionary import: duplicate name %q (ids %d and %d)", n, prev, i)
		}
		sh.byName[n] = EventID(i)
		d.names = append(d.names, n)
	}
	return nil
}
