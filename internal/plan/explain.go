package plan

import (
	"fmt"
	"strings"

	"specmine/internal/obs"
	"specmine/internal/seqdb"
)

// SelectionExplain describes how a Where predicate was compiled: which
// operator drives trace enumeration and how many candidates it was estimated
// to yield before residual filters.
type SelectionExplain struct {
	// Driver is "scan" (ordinal range), "ids" (explicit list), "postings"
	// (the rarest required event's postings), or "empty" (provably no trace
	// matches).
	Driver string
	// DriverEvent is the event whose postings drive enumeration; valid only
	// when Driver is "postings".
	DriverEvent seqdb.EventID
	// EstTraces is the driver's cardinality estimate before residual filters.
	EstTraces int
	// Filters counts residual predicates applied to each candidate.
	Filters int
}

// Explain is the human- and machine-readable account of one query — a
// predicated call, or any out-of-core mine or check: the traces it selected,
// the segments whose bodies it never decoded, the selection operator a Where
// predicate compiled to, and the registry the query counted its work into.
type Explain struct {
	// Selected counts the traces the predicate admitted.
	Selected int

	// Obs holds exactly the query's own counts, even while other queries
	// share its parent registry: verify.traces_checked/skipped count traces
	// fed through the online automaton versus answered from segment
	// statistics alone, verify.segments_checked/skipped count segment bodies
	// decoded versus answered from statistics, a mining query's mine.* series,
	// and an out-of-core query's segment-cache cache.* series (the cache gives
	// its residency back when the query returns, so cache.resident_bytes then
	// reads zero and cache.peak_bytes the query's high-water mark). Nil for a
	// query that ran neither a verifier nor an out-of-core miner.
	Obs *obs.Registry

	// SegmentsSkipped counts the catalog segments whose bodies the query
	// never decoded: pruned by the predicate, answered from statistics, or
	// never needed by a miner. SegmentsTotal is the catalog size; an
	// in-memory database is one segment.
	SegmentsSkipped int
	SegmentsTotal   int

	// Selection is set when the query compiled a Where predicate.
	Selection *SelectionExplain
}

// Render formats the explanation for humans. dict resolves event names and
// may be nil, in which case raw event ids are printed.
func (ex *Explain) Render(dict *seqdb.Dictionary) string {
	var b strings.Builder
	b.WriteString("query:\n")
	if sel := ex.Selection; sel != nil {
		fmt.Fprintf(&b, "  selection: driver=%s", sel.Driver)
		if sel.Driver == "postings" {
			fmt.Fprintf(&b, "[%s]", dict.Name(sel.DriverEvent))
		}
		fmt.Fprintf(&b, " est=%d filters=%d\n", sel.EstTraces, sel.Filters)
	}
	if ex.SegmentsTotal > 0 {
		fmt.Fprintf(&b, "  segments: %d/%d skipped\n", ex.SegmentsSkipped, ex.SegmentsTotal)
	}
	c := func(name string) int64 { return ex.Obs.Counter(name).Value() }
	fmt.Fprintf(&b, "  metrics: traces checked=%d skipped=%d; segments checked=%d skipped=%d\n",
		c("verify.traces_checked"), c("verify.traces_skipped"), c("verify.segments_checked"), c("verify.segments_skipped"))
	return b.String()
}
