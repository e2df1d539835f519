package seqdb

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarises a database. The fields mirror the parameters of the
// paper's synthetic generator (number of sequences D, average events per
// sequence C, number of distinct events N) so that generated datasets can be
// sanity-checked against their nominal configuration.
type Stats struct {
	NumSequences   int
	NumEvents      int
	DistinctEvents int
	MinLength      int
	MaxLength      int
	MeanLength     float64
	MedianLength   float64
}

// ComputeStats scans db once and returns its summary statistics.
func ComputeStats(db *Database) Stats {
	st := Stats{NumSequences: db.NumSequences()}
	if st.NumSequences == 0 {
		return st
	}
	lengths := make([]int, 0, st.NumSequences)
	distinct := make(map[EventID]struct{})
	for _, s := range db.Sequences {
		lengths = append(lengths, len(s))
		st.NumEvents += len(s)
		for _, e := range s {
			distinct[e] = struct{}{}
		}
	}
	st.DistinctEvents = len(distinct)
	sort.Ints(lengths)
	st.MinLength = lengths[0]
	st.MaxLength = lengths[len(lengths)-1]
	st.MeanLength = float64(st.NumEvents) / float64(st.NumSequences)
	mid := len(lengths) / 2
	if len(lengths)%2 == 1 {
		st.MedianLength = float64(lengths[mid])
	} else {
		st.MedianLength = float64(lengths[mid-1]+lengths[mid]) / 2
	}
	return st
}

// String renders the statistics as a small human-readable report.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sequences=%d events=%d distinct=%d ", st.NumSequences, st.NumEvents, st.DistinctEvents)
	fmt.Fprintf(&b, "length[min=%d mean=%.1f median=%.1f max=%d]", st.MinLength, st.MeanLength, st.MedianLength, st.MaxLength)
	return b.String()
}

// TopEvents returns the n most frequent events (by total occurrences) with
// their counts, most frequent first. Ties break by event id for determinism.
func TopEvents(db *Database, n int) []EventCount {
	cnt := db.EventInstanceCount()
	out := make([]EventCount, 0, len(cnt))
	for e, c := range cnt {
		out = append(out, EventCount{Event: e, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Event < out[j].Event
	})
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// EventCount pairs an event with an occurrence count.
type EventCount struct {
	Event EventID
	Count int
}
