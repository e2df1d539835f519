package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"specmine/internal/obs"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/stream"
)

// replayDurable runs the full durable ingestion lifecycle in dir: open a
// fresh store, adopt the pre-generated dictionary (fresh store, so ids map
// 1:1), replay the operation stream through a durable ingester — WAL appends
// before every ack, segment flushes at the batch barriers — take the final
// snapshot and close everything. A non-nil reg is attached to both the
// store and the ingester.
func replayDurable(dir string, c StreamCase, dict *seqdb.Dictionary, ops []StreamOp, reg *obs.Registry) error {
	st, err := store.Open(store.Options{Dir: dir, Shards: c.Shards, Obs: reg})
	if err != nil {
		return err
	}
	for _, name := range dict.Export() {
		st.Dict().Intern(name)
	}
	ing, err := stream.Open(stream.Config{FlushBatch: c.FlushBatch, Store: st, Obs: reg})
	if err != nil {
		return err
	}
	for _, op := range ops {
		if op.Seal {
			err = ing.CloseTrace(op.TraceID)
		} else {
			err = ing.IngestIDs(op.TraceID, op.Events...)
		}
		if err != nil {
			return err
		}
	}
	v, err := ing.Snapshot()
	if err != nil {
		return err
	}
	if v.DB.NumSequences() != c.Traces {
		return fmt.Errorf("snapshot has %d traces want %d", v.DB.NumSequences(), c.Traces)
	}
	if err := ing.Close(); err != nil {
		return err
	}
	return st.Close()
}

// replayMemory is the same stream through a memory-only ingester — the
// baseline the durable path is compared against.
func replayMemory(c StreamCase, dict *seqdb.Dictionary, ops []StreamOp) error {
	ing, err := stream.Open(stream.Config{Shards: c.Shards, FlushBatch: c.FlushBatch, Dict: dict})
	if err != nil {
		return err
	}
	for _, op := range ops {
		var err error
		if op.Seal {
			err = ing.CloseTrace(op.TraceID)
		} else {
			err = ing.IngestIDs(op.TraceID, op.Events...)
		}
		if err != nil {
			return err
		}
	}
	if _, err := ing.Snapshot(); err != nil {
		return err
	}
	return ing.Close()
}

// BenchmarkStoreIngest compares durable ingestion (write-ahead logged,
// segment-flushed, group-committed) against the in-memory ingester on the
// same pre-generated operation stream. The acceptance bar for the store
// subsystem is durable >= 25% of memory events/sec.
func BenchmarkStoreIngest(b *testing.B) {
	for _, c := range StoreCases() {
		dict, ops, _, events := c.GenStream()
		b.Run(c.Name+"/durable", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir, err := os.MkdirTemp("", "specmine-store-bench-*")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := replayDurable(dir, c, dict, ops, nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				os.RemoveAll(dir)
				b.StartTimer()
			}
			b.ReportMetric(float64(events), "events/op")
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
		b.Run(c.Name+"/memory", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := replayMemory(c, dict, ops); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events), "events/op")
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkRecover measures cold-start recovery: segments load, the WAL tail
// replays, and the merged database's flat index is rebuilt — the events/sec
// a restarted process achieves getting back to mining-ready state.
func BenchmarkRecover(b *testing.B) {
	for _, c := range StoreCases() {
		dict, ops, _, events := c.GenStream()
		dir := filepath.Join(b.TempDir(), "recover-"+c.Name)
		if err := replayDurable(dir, c, dict, ops, nil); err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := store.Open(store.Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				db := st.Recovered().Database(st.Dict())
				if db.NumSequences() != c.Traces {
					b.Fatalf("recovered %d traces want %d", db.NumSequences(), c.Traces)
				}
				db.FlatIndex()
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events), "events/op")
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// TestDurableIngestThroughputFloor guards the acceptance criterion with a
// generous margin for noisy CI machines: durable ingestion must sustain at
// least 10% of in-memory throughput here (BenchmarkStoreIngest measures the
// real ratio). The ratio is the median over alternating single-run pairs
// (pairedRatio, as the performance gates measure), so a swing in file
// creation cost lands on both sides of a pair instead of on one side's
// whole sample.
func TestDurableIngestThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison is not meaningful in -short runs")
	}
	c := StoreCases()[0]
	dict, ops, _, _ := c.GenStream()
	dir := filepath.Join(t.TempDir(), "store")
	ratio, pairs := pairedRatio(t, func() { os.RemoveAll(dir) },
		func() error { return replayMemory(c, dict, ops) },
		func() error { return replayDurable(dir, c, dict, ops, nil) })
	t.Logf("durable/memory throughput ratio: %.2f over %d pairs", ratio, pairs)
	if ratio < 0.10 {
		t.Fatalf("durable ingest sustains only %.1f%% of in-memory throughput over %d pairs (floor 10%%)", ratio*100, pairs)
	}
}
