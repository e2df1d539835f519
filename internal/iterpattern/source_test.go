package iterpattern

import (
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"specmine/internal/mine"
	"specmine/internal/seqdb"
)

// seedViews is a mine.Source that hands each seed only the traces containing
// it, copied into a fresh database under a non-identity id map — the shape
// of an out-of-core view, built without a store.
type seedViews struct {
	db   *seqdb.Database
	idx  *seqdb.PositionIndex
	open atomic.Int64 // views acquired and not yet released
}

func newSeedViews(db *seqdb.Database) *seedViews {
	return &seedViews{db: db, idx: db.FlatIndex()}
}

func (s *seedViews) NumSequences() int { return s.db.NumSequences() }
func (s *seedViews) NumEvents() int    { return s.idx.NumEvents() }

func (s *seedViews) FrequentByInstanceCount(min int) []seqdb.EventID {
	return s.idx.FrequentEventsByInstanceCount(min)
}

func (s *seedViews) FrequentBySeqSupport(min int) []seqdb.EventID {
	return s.idx.FrequentEventsBySeqSupport(min)
}

func (s *seedViews) AcquireSeed(e seqdb.EventID) (*mine.SeedView, error) {
	view := seqdb.NewDatabaseWithDict(s.db.Dict)
	var global []int32
	for _, g := range s.idx.SeqsContaining(e) {
		view.Append(s.db.Sequences[g])
		global = append(global, g)
	}
	s.open.Add(1)
	return &mine.SeedView{
		DB:      view,
		Idx:     seqdb.BuildPositionIndex(view.Sequences, s.idx.NumEvents()),
		Global:  global,
		Release: func() { s.open.Add(-1) },
	}, nil
}

// failingSource fails every AcquireSeed call.
type failingSource struct{ mine.Source }

var errAcquire = errors.New("segment unavailable")

func (failingSource) AcquireSeed(seqdb.EventID) (*mine.SeedView, error) { return nil, errAcquire }

// sameResult compares two results field by field, ignoring wall-clock time.
func sameResult(a, b *Result) bool {
	a.Stats.Duration, b.Stats.Duration = 0, 0
	return reflect.DeepEqual(a, b)
}

// TestMineSourceSeedViewsMatchResident: the one search driver gives the same
// patterns, instances (remapped to global ids) and statistics whether each
// seed sees the whole database or only the traces containing it.
func TestMineSourceSeedViewsMatchResident(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 20; iter++ {
		db := randomDB(rng, 6, 9, 4)
		for _, full := range []bool{true, false} {
			for _, workers := range []int{1, 3} {
				opts := Options{MinInstanceSupport: 2, IncludeInstances: true, Full: full, Workers: workers}
				want, err := Mine(db, opts)
				if err != nil {
					t.Fatal(err)
				}
				src := newSeedViews(db)
				got, err := MineSource(src, opts)
				if err != nil {
					t.Fatal(err)
				}
				if n := src.open.Load(); n != 0 {
					t.Fatalf("iter %d full=%v workers=%d: %d views never released", iter, full, workers, n)
				}
				if !sameResult(got, want) {
					t.Fatalf("iter %d full=%v workers=%d: seed views differ from resident\n got %+v\nwant %+v",
						iter, full, workers, got, want)
				}
			}
		}
	}
}

// TestMineWorkersByteIdentical: the full and closed miners return the same
// result for every worker count.
func TestMineWorkersByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 10; iter++ {
		db := randomDB(rng, 5, 10, 4)
		for _, full := range []bool{true, false} {
			want, err := Mine(db, Options{MinInstanceSupport: 2, IncludeInstances: true, Full: full, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, -1} {
				got, err := Mine(db, Options{MinInstanceSupport: 2, IncludeInstances: true, Full: full, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(got, want) {
					t.Fatalf("iter %d full=%v: workers=%d differs from workers=1", iter, full, workers)
				}
			}
		}
	}
}

// TestMineSourceAcquireError: a seed view that cannot be acquired fails the
// whole mine with the source's error, for every worker count.
func TestMineSourceAcquireError(t *testing.T) {
	db := mkdb([]string{"a", "b", "a"}, []string{"a", "b"})
	for _, workers := range []int{1, 2} {
		src := failingSource{mine.Resident(db)}
		_, err := MineSource(src, Options{MinInstanceSupport: 2, Workers: workers})
		if !errors.Is(err, errAcquire) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errAcquire)
		}
	}
}
