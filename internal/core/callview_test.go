package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"testing"

	"specmine/internal/fsim"
	"specmine/internal/obs"
	"specmine/internal/seqdb"
	"specmine/internal/store"
)

// TestCallViewAssemblesInCatalogOrder: the call-wide view pins and indexes
// its segments on several workers, yet its traces, its Global table and its
// index rows equal a serial assembly of the union's segments in catalog
// order, run after run. The sessions shrink along the catalog, so a later
// segment tends to finish before an earlier one. The view is checked over
// the whole catalog (Global nil) and over every other session's segments.
func TestCallViewAssemblesInCatalogOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	const sessions = 8
	for s := 0; s < sessions; s++ {
		traces := make([][]string, 25*(sessions-s))
		for i := range traces {
			traces[i] = []string{"open", fmt.Sprintf("c%d", s%2), "use", "close"}
		}
		ingestSession(t, dir, 2, fmt.Sprintf("s%d", s), traces)
	}
	ts := reopenStore(t, dir)
	db := ts.Recovered().Database(ts.Dict())
	metas := ts.Segments()
	if len(metas) < 8 {
		t.Fatalf("fixture has %d segments, want at least 8", len(metas))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)

	for _, name := range []string{"open", "c0"} {
		e := ts.Dict().Lookup(name)
		// The serial assembly: every segment holding a trace with e, in
		// catalog order, all of its traces.
		var seqs []seqdb.Sequence
		var global []int32
		union := 0
		for _, m := range metas {
			segment := db.Sequences[m.Base : m.Base+m.NumTraces()]
			if !slices.ContainsFunc(segment, func(s seqdb.Sequence) bool { return slices.Contains(s, e) }) {
				continue
			}
			union++
			seqs = append(seqs, segment...)
			for g := m.Base; g < m.Base+m.NumTraces(); g++ {
				global = append(global, int32(g))
			}
		}
		if union == len(metas) {
			global = nil
		} else if union < 2 {
			t.Fatalf("%s: union of %d segments exercises no fan-out", name, union)
		}
		for run := 0; run < 20; run++ {
			src, err := newSegSource(ts, 0, obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			src.seeds = []seqdb.EventID{e}
			sv, err := src.AcquireSeed(e)
			if err != nil {
				t.Fatal(err)
			}
			if sv != src.callView {
				t.Fatalf("%s: AcquireSeed returned a per-seed view under an unlimited budget", name)
			}
			switch {
			case !reflect.DeepEqual(sv.DB.Sequences, seqs):
				t.Fatalf("%s run %d: view traces are not the union's in catalog order", name, run)
			case !reflect.DeepEqual(sv.Global, global):
				t.Fatalf("%s run %d: Global = %v, want %v", name, run, sv.Global, global)
			case !reflect.DeepEqual(sv.Idx, seqdb.BuildPositionIndex(seqs, src.NumEvents())):
				t.Fatalf("%s run %d: view index rows are not the union's in catalog order", name, run)
			}
			src.close()
		}
	}
}

// TestCallViewPinFailureReleasesPins: a read fault on a middle segment's
// body fails the call-wide view's parallel build, and MineStoreRules returns
// the fault. The pins the other workers took are dropped: once the call's
// source has closed, its parent registry reads no resident bytes (closing the
// pool gives back only unpinned segments, so a leaked pin stays counted).
func TestCallViewPinFailureReleasesPins(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	writeSessions(t, dir, 2, 4, 20)
	probe, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	metas := probe.Segments()
	probe.Close()
	if len(metas) < 4 {
		t.Fatalf("fixture has %d segments, want at least 4", len(metas))
	}
	bad := metas[len(metas)/2].Path
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)

	// Open reads each segment file once (read 0) and the call once more for
	// its statistics (read 1), so read 2 is the pin of the body.
	ffs := fsim.NewFaultFS(fsim.OS(), fsim.Rule{Op: fsim.OpRead, Path: bad, From: 2, To: 1 << 20, Err: syscall.EIO})
	ts, err := store.Open(store.Options{Dir: dir, OutOfCore: true, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	shared := NewMetrics()
	ropts := RuleOptions{MinSeqSupportRel: 0.5, MinConfidence: 0.6, MaxPremiseLength: 2, MaxConsequentLength: 2, Workers: 2}
	if _, _, err := MineStoreRules(ts, ropts, OutOfCoreOptions{Obs: shared}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("MineStoreRules returned %v, want the injected read fault (injections %v)", err, ffs.Injections())
	}
	if pins := counterVal(t, shared, "cache.pins"); pins < 2 {
		t.Fatalf("%d pins: the fault did not land mid-build", pins)
	}
	if got := counterVal(t, shared, "cache.resident_bytes"); got != 0 {
		t.Fatalf("%d bytes still resident after the failed call: a pin leaked", got)
	}
}
