// Package iterpattern implements mining of iterative patterns from a
// sequence database of program traces (Section 4 of the paper).
//
// An iterative pattern is a series of events whose instances — defined by the
// Quantified Regular Expression of Definition 4.1 and implemented in package
// qre — are counted repeatedly within and across sequences. Mine returns
// either set of Figure 1:
//
//   - by default only closed patterns (Definition 4.2), using early
//     search-space pruning of non-closed pattern subtrees plus an exact
//     closedness filter (the "Closed" series);
//   - with Options.Full every frequent pattern (the "Full" series).
package iterpattern

import (
	"errors"
	"fmt"

	"specmine/internal/seqdb"
)

// Options configures a mining run.
type Options struct {
	// MinInstanceSupport is the absolute minimum number of instances a
	// pattern must have to be frequent. It must be at least 1.
	MinInstanceSupport int

	// MinSupportRel, when positive, overrides MinInstanceSupport with
	// seqdb.AbsoluteSupport(rel, number of sequences): the paper reports
	// support thresholds relative to the number of sequences in the database
	// (Section 6).
	MinSupportRel float64

	// Full mines every frequent pattern; the zero value mines the closed set
	// of Definition 4.2.
	Full bool

	// MaxPatternLength bounds the length of mined patterns; 0 means no bound.
	MaxPatternLength int

	// IncludeInstances records the instance list of every emitted pattern.
	// It is off by default because the full miner can emit very large sets.
	IncludeInstances bool

	// Workers bounds the worker pool that explores the top-level search tree
	// (one frequent seed event per task). 0 and 1 run sequentially; negative
	// values use GOMAXPROCS. Results are byte-identical to a sequential run
	// for any worker count.
	Workers int
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	if o.MinInstanceSupport < 1 && o.MinSupportRel <= 0 {
		return errors.New("iterpattern: MinInstanceSupport must be >= 1 or MinSupportRel > 0")
	}
	if err := seqdb.CheckSupportRel("MinSupportRel", o.MinSupportRel); err != nil {
		return fmt.Errorf("iterpattern: %w", err)
	}
	if o.MaxPatternLength < 0 {
		return errors.New("iterpattern: MaxPatternLength must be >= 0")
	}
	return nil
}
