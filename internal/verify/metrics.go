package verify

import "specmine/internal/obs"

// Metrics counts the work a verification pass performed and the work
// segment statistics let it avoid, so the core facade can surface them per
// query, Streamer.Health-style. All fields are plain counters.
type Metrics struct {
	// TracesChecked counts traces fed through the online automaton;
	// TracesSkipped counts traces answered from segment statistics alone
	// (every rule provably has zero temporal points on them).
	TracesChecked int64
	TracesSkipped int64

	// SegmentsChecked / SegmentsSkipped count segment bodies decoded versus
	// answered from per-segment statistics alone (SegmentSkippable hits).
	SegmentsChecked int64
	SegmentsSkipped int64
}

// Publish folds the pass's counters into the registry's cumulative verify.*
// series (verify.traces_checked, verify.traces_skipped,
// verify.segments_checked, verify.segments_skipped). Per-query values stay on
// the struct; the registry accumulates across queries. A nil registry is a
// no-op, but a non-nil one registers every series even when the pass did no
// work, so scrapes see a stable schema.
func (m Metrics) Publish(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("verify.traces_checked").Add(m.TracesChecked)
	r.Counter("verify.traces_skipped").Add(m.TracesSkipped)
	r.Counter("verify.segments_checked").Add(m.SegmentsChecked)
	r.Counter("verify.segments_skipped").Add(m.SegmentsSkipped)
}
