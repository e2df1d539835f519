package bench

import (
	"fmt"
	"testing"

	"specmine/internal/stream"
	"specmine/internal/verify"
)

// BenchmarkStreamIngest measures the sharded streaming front end end to end:
// interleaved chunks of live traces flow through the ingester, terminated
// traces are sealed into their shards, and a final snapshot barrier collects
// them. Operations are pre-generated and
// pre-interned, so the measured region is the ingestion machinery itself.
// The events/op metric lets per-event allocs be read off allocs/op.
func BenchmarkStreamIngest(b *testing.B) {
	for _, c := range StreamCases() {
		dict, ops, engine, events := c.GenStream()
		b.Run(fmt.Sprintf("%s/shards=%d", c.Name, c.Shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ing, err := stream.Open(stream.Config{
					Shards: c.Shards, FlushBatch: c.FlushBatch, Dict: dict, Engine: engine,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, op := range ops {
					if op.Seal {
						if err := ing.CloseTrace(op.TraceID); err != nil {
							b.Fatal(err)
						}
					} else if err := ing.IngestIDs(op.TraceID, op.Events...); err != nil {
						b.Fatal(err)
					}
				}
				v, err := ing.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				if v.DB.NumSequences() != c.Traces {
					b.Fatalf("snapshot has %d traces want %d", v.DB.NumSequences(), c.Traces)
				}
				if err := ing.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events), "events/op")
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkOnlineVerify measures the online conformance automaton alone: one
// reused Checker consumes every trace of the serving batch event by event
// into one Tally, whose reports are built once at the end. This
// is the same work Engine.Check drives, and the path an ingestion shard and
// its snapshots run when an engine is attached, isolated from database and
// index plumbing.
func BenchmarkOnlineVerify(b *testing.B) {
	for _, c := range VerifyCases() {
		ruleSet, db := c.Gen()
		if len(ruleSet) == 0 {
			b.Fatalf("%s: no rules mined", c.Name)
		}
		engine, err := verify.NewEngine(ruleSet)
		if err != nil {
			b.Fatal(err)
		}
		events := db.NumEvents()
		b.Run(fmt.Sprintf("%s/rules=%d/online", c.Name, len(ruleSet)), func(b *testing.B) {
			b.ReportAllocs()
			checker := engine.NewChecker()
			for i := 0; i < b.N; i++ {
				tally := engine.NewTally()
				for si, s := range db.Sequences {
					for _, ev := range s {
						checker.Advance(ev)
					}
					checker.Close(si, tally)
				}
				_ = engine.Reports([]*verify.Tally{tally}, tally.Parts())
			}
			b.ReportMetric(float64(events), "events/op")
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
