// Package mine is the shared count-first search framework under the
// repository's miners. Every miner — iterative patterns, recurrent rules,
// sequential patterns, episodes — explores a pattern-growth search tree over
// the flat positional index (seqdb.PositionIndex) with the same three
// mechanics, which used to be re-implemented per package and now live here
// exactly once:
//
//   - seed fan-out (ForSeeds): the top-level search splits into independent
//     per-seed subtrees executed across a bounded worker pool, dispatched
//     and returned in seed order. Every miner sorts its output and sums its
//     Stats, which is what makes results byte-identical to a sequential run
//     for any worker count;
//   - free-listed arenas (Arena) and epoch-stamped scratch (StampSet, plus
//     seqdb.EventSlots): node-local storage is recycled when a subtree has
//     been fully explored and per-event sets reset in O(1), so search cost is
//     proportional to the live path, not to nodes explored;
//   - count-first suffix extension (Extender): one pass over a node's
//     pseudo-projection counts every candidate extension, counts alone decide
//     pruning, and extension projections are materialised only for candidates
//     that survive the threshold. The pass never scans a suffix: consecutive
//     entries on one sequence with non-decreasing positions form a group,
//     and each group is counted once from its sequence's distinct events
//     listed by last occurrence (an event is in the suffix of every group
//     entry positioned before its last occurrence), so a group costs the
//     distinct events of its first suffix, not the lengths of its suffixes.
package mine

import (
	"runtime"

	"specmine/internal/par"
	"specmine/internal/seqdb"
)

// EffectiveWorkers resolves the miners' shared Workers knob to a concrete
// worker count: 0 and 1 mean sequential, negative means GOMAXPROCS.
func EffectiveWorkers(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		return 1
	}
	return workers
}

// ForSeeds runs run(w, seed) for every seed in [0, n) across at most workers
// goroutines, handing seeds out in ascending order, and returns the per-seed
// outputs in seed order. Each pool goroutine gets its own worker state from
// newWorker (once on the calling goroutine when the pool degenerates to
// sequential), so scratch buffers are never shared.
//
// The seed order is not what makes the miners' results byte-identical for
// any worker count: every miner sorts its output and sums its Stats, so no
// answer depends on the order of the outputs. The order is kept because
// phase 3 of rules.MineSource caches one seed view per worker and relies on
// its jobs arriving seed-major, which the seed-order concatenation of phase
// 1's outputs provides independent of scheduling.
func ForSeeds[W, O any](n, workers int, newWorker func() W, run func(w W, seed int) O) []O {
	outs := make([]O, n)
	par.ForWorker(n, workers, newWorker, func(w W, i int) {
		outs[i] = run(w, i)
	})
	return outs
}

// Arena is a free list of []T backing arrays. Search nodes obtain their
// scratch and projection storage from an arena and return it once the
// subtree below them is fully explored, so allocation cost is proportional
// to the maximum live search path instead of the number of nodes explored.
// The zero value is ready to use. An Arena is not safe for concurrent use;
// give each worker its own.
type Arena[T any] struct {
	free [][]T
}

// Get returns a zero-length slice, reusing a recycled backing array when one
// is available (nil otherwise, which append handles transparently).
func (a *Arena[T]) Get() []T {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		return s
	}
	return nil
}

// GetN returns a slice of length n, reusing a recycled backing array when
// its capacity suffices. A popped array that is too small is dropped, which
// lets the arena's buffers grow toward the workload's node size.
func (a *Arena[T]) GetN(n int) []T {
	if k := len(a.free); k > 0 {
		s := a.free[k-1]
		a.free = a.free[:k-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

// Put returns a backing array to the free list. Zero-capacity slices (nil
// included) are ignored, so callers can Put unconditionally.
func (a *Arena[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	a.free = append(a.free, s[:0])
}

// StampSet is an epoch-stamped membership set over event ids: Begin
// invalidates every member in O(1) by bumping the epoch, so no clearing pass
// ever runs between search nodes. Epoch wraparound is handled by
// seqdb.BumpEpoch (stamps are cleared once every 2^32 - 1 generations).
type StampSet struct {
	stamp []uint32
	epoch uint32
}

// NewStampSet returns a set over an event-id space of size numEvents.
func NewStampSet(numEvents int) StampSet {
	return StampSet{stamp: make([]uint32, numEvents)}
}

// Begin empties the set.
func (s *StampSet) Begin() {
	seqdb.BumpEpoch(&s.epoch, s.stamp)
}

// Add marks e as a member.
func (s *StampSet) Add(e seqdb.EventID) {
	s.stamp[e] = s.epoch
}

// TestAndSet adds e and reports whether it was newly added.
func (s *StampSet) TestAndSet(e seqdb.EventID) bool {
	if s.stamp[e] == s.epoch {
		return false
	}
	s.stamp[e] = s.epoch
	return true
}

// Contains reports whether e was added since the last Begin.
func (s *StampSet) Contains(e seqdb.EventID) bool {
	return s.stamp[e] == s.epoch
}
