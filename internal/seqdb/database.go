package seqdb

import "fmt"

// Database is the sequence database SeqDB of the paper: an ordered collection
// of sequences (traces) plus the dictionary that interns their event names.
type Database struct {
	Dict      *Dictionary
	Sequences []Sequence

	// flat caches the flat positional index built by FlatIndex. The miners'
	// hot paths run entirely against it. Append drops it.
	flat *PositionIndex
}

// NewDatabase returns an empty database with a fresh dictionary.
func NewDatabase() *Database {
	return &Database{Dict: NewDictionary()}
}

// NewDatabaseWithDict returns an empty database that interns names through
// the supplied dictionary. Useful when several databases (for example a
// training set and a verification set) must share event ids.
func NewDatabaseWithDict(dict *Dictionary) *Database {
	if dict == nil {
		dict = NewDictionary()
	}
	return &Database{Dict: dict}
}

// Append adds a sequence of already-interned event ids to the database and
// drops the cached flat index, so the next FlatIndex call builds a fresh one.
// An index obtained before the Append is immutable and keeps answering for
// the sequences it was built over.
func (db *Database) Append(s Sequence) {
	db.Sequences = append(db.Sequences, s)
	db.flat = nil
}

// AppendNames interns each name and appends the resulting sequence. It is
// the main entry point for building databases from textual traces.
func (db *Database) AppendNames(names ...string) {
	s := make(Sequence, 0, len(names))
	for _, n := range names {
		s = append(s, db.Dict.Intern(n))
	}
	db.Append(s)
}

// NumSequences returns the number of traces in the database.
func (db *Database) NumSequences() int { return len(db.Sequences) }

// NumEvents returns the total number of events summed over all traces.
func (db *Database) NumEvents() int {
	n := 0
	for _, s := range db.Sequences {
		n += len(s)
	}
	return n
}

// FlatIndex builds (or returns the cached) flat positional index over the
// database. All miners run their hot paths against this representation; see
// PositionIndex for the layout. The index is built once over the current
// sequences and never modified, so it may be shared by concurrent readers;
// after an Append (or any change to the number of sequences) the next call
// builds a fresh one.
func (db *Database) FlatIndex() *PositionIndex {
	if db.flat == nil || db.flat.NumSequences() != len(db.Sequences) {
		db.flat = BuildPositionIndex(db.Sequences, db.Dict.Size())
	}
	return db.flat
}

// SnapshotView returns a read-only view of the database: the dictionary is
// shared and the sequence headers are copied, so the view stays fixed while
// the original keeps appending and can be handed to concurrent miners. The
// view builds its own flat index on first use. SnapshotView must be called
// by the database's writer.
func (db *Database) SnapshotView() *Database {
	return &Database{Dict: db.Dict, Sequences: append([]Sequence(nil), db.Sequences...)}
}

// Clone returns a deep copy of the database (dictionary and sequences).
func (db *Database) Clone() *Database {
	c := &Database{Dict: db.Dict.Clone()}
	c.Sequences = make([]Sequence, len(db.Sequences))
	for i, s := range db.Sequences {
		c.Sequences[i] = s.Clone()
	}
	return c
}

// Validate checks internal consistency: every event id referenced by a
// sequence must be known to the dictionary. It returns a descriptive error
// for the first inconsistency found.
func (db *Database) Validate() error {
	n := EventID(db.Dict.Size())
	for i, s := range db.Sequences {
		for j, e := range s {
			if e < 0 || e >= n {
				return fmt.Errorf("sequence %d position %d: event id %d outside dictionary (size %d)", i, j, e, n)
			}
		}
	}
	return nil
}

// AbsoluteSupport converts a relative support threshold rel (a fraction of
// the n sequences of a database, as used on the x-axes of the paper's
// figures, e.g. 0.0025 for 0.25%) into an absolute count: rel*n rounded half
// up, never less than 1. Rounding, not ceil, means the threshold can admit
// slightly less than rel: 0.9 of 8 sequences gives 7, which is 87.5%.
func AbsoluteSupport(rel float64, n int) int {
	return max(int(rel*float64(n)+0.5), 1)
}

// CheckSupportRel rejects a relative support threshold outside [0, 1] (NaN
// included); 0 means the option is unset. name labels the option in the
// error.
func CheckSupportRel(name string, rel float64) error {
	if !(rel >= 0 && rel <= 1) {
		return fmt.Errorf("%s %v outside (0,1]", name, rel)
	}
	return nil
}
