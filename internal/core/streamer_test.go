package core

import (
	"testing"

	"specmine/internal/tracesim"
)

// TestStreamerEndToEnd drives the facade's streaming path: mine rules from a
// training batch, stream fresh violating traffic in chunks, then confirm the
// online conformance summary equals a batch CheckRules over the snapshot,
// and that the snapshot itself is minable.
func TestStreamerEndToEnd(t *testing.T) {
	w := tracesim.Workloads()["transaction"]
	train := w.MustGenerate(30, 7)
	res, err := MineRules(train, RuleOptions{
		MinSeqSupportRel: 0.5, MinConfidence: 0.8,
		MaxPremiseLength: 2, MaxConsequentLength: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules mined from the training batch")
	}

	st, err := NewStreamer(StreamOptions{Shards: 3, FlushBatch: 4, Dict: train.Dict, Rules: res.Rules})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	fresh := w
	fresh.ViolationRate = 0.3
	err = fresh.Stream(50, 99, 6, func(c tracesim.StreamChunk) error {
		if len(c.Events) > 0 {
			if err := st.Ingest(c.TraceID, c.Events...); err != nil {
				return err
			}
		}
		if c.Final {
			return st.CloseTrace(c.TraceID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	db, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != 50 {
		t.Fatalf("snapshot has %d traces want 50", db.NumSequences())
	}

	online, err := st.CheckOnline()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := CheckRules(db, res.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if online.TotalViolations() != batch.TotalViolations() {
		t.Fatalf("online summary has %d violations, batch %d", online.TotalViolations(), batch.TotalViolations())
	}
	if online.TotalViolations() == 0 {
		t.Fatal("expected violations in the aberrated traffic")
	}

	// The snapshot feeds the batch miners while ingestion could continue.
	pat, err := MinePatterns(db, PatternOptions{MinSupportRel: 0.9, MaxPatternLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pat.Patterns) == 0 {
		t.Fatal("no patterns mined from the snapshot")
	}
}

func TestStreamerOptionValidation(t *testing.T) {
	train := NewDatabase()
	train.AppendNames("a", "b")
	res, err := MineRules(train, RuleOptions{MinSeqSupport: 1, MinConfidence: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Skip("no rules mined")
	}
	if _, err := NewStreamer(StreamOptions{Rules: res.Rules}); err == nil {
		t.Fatal("NewStreamer accepted rules without a dictionary")
	}
	st, err := NewStreamer(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.CheckOnline(); err == nil {
		t.Fatal("CheckOnline without rules did not error")
	}
	st.Close()
}
