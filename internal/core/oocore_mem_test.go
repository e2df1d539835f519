package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/stream"
)

// The memory-capped CI gate. Two tests run in two separate processes:
//
//	TestOutOfCorePrepare  — no memory limit: generates a clustered store whose
//	                        decoded size is several times the cap, computes
//	                        in-memory reference answers, and writes both plus
//	                        a sizing file into SPECMINE_OOCORE_DIR.
//	TestOutOfCoreCapped   — run with GOMEMLIMIT ≈ decoded/4 (the CI job reads
//	                        sizing.env; a debug.SetMemoryLimit guard enforces
//	                        the cap even when the env is missing): opens the
//	                        store out-of-core, mines and checks through the
//	                        segment cache, and byte-compares against the
//	                        references while a sampler asserts the heap never
//	                        outgrows the cap. A heap profile lands in the
//	                        artifact dir on failure.
//
// Both are no-ops unless SPECMINE_OOCORE=1 and SPECMINE_OOCORE_DIR are set:
// the uncapped prepare step would dominate ordinary `go test ./...` time.
//
// Workload shape: clusters of traces with fully disjoint event alphabets —
// cluster k emits only c{k}_* events — ingested cluster by cluster, so
// segments are cluster-pure (up to boundary segments and the WAL tail).
// Cluster 0 is `hotWeight` times larger than the others, which gives a
// support threshold that isolates its events: mining under the cap seeds
// only from cluster 0 and a selective rule set over c0_* events must answer
// every other segment from statistics alone.

const (
	oocoreEnvGate = "SPECMINE_OOCORE"
	oocoreEnvDir  = "SPECMINE_OOCORE_DIR"
	oocoreEnvMB   = "SPECMINE_OOCORE_MB" // decoded size target, default 128

	oocoreHotWeight  = 2   // cluster 0 : other clusters size ratio
	oocoreClusterKB  = 512 // decoded KiB per small cluster
	oocoreOpsPerOp   = 30  // (op, ...) slots per trace
	oocoreOpAlphabet = 40  // distinct op events per cluster
	oocoreDropEvery  = 9   // every Nth trace loses its close: a violation
)

// oocoreReference is everything the capped process needs: sizing, the rule
// sets (mined/built uncapped), and canonical dumps of the expected answers.
type oocoreReference struct {
	DecodedBytes  int64 // cache-estimator bytes of the full decoded database
	MemLimitBytes int64 // GOMEMLIMIT for the capped step: DecodedBytes/4
	CacheBytes    int64 // segment-cache budget: DecodedBytes/16
	SegmentsTotal int
	Clusters      int
	TracesTotal   int

	MinSupport    int // pattern threshold isolating cluster 0's events
	MinSeqSupport int // rule threshold isolating cluster 0's events

	FullRules      []Rule // one open→close rule per cluster: unskippable sweep
	SelectiveRules []Rule // cluster-0 rules: ≤10% of bodies may open

	Patterns       string // canonical dump of MinePatterns under MinSupport
	Rules          string // canonical dump of MineRules under MinSeqSupport
	CheckFull      string // Render of CheckRules(FullRules)
	CheckSelective string // Render of CheckRules(SelectiveRules)
}

func oocoreDir(t *testing.T) string {
	t.Helper()
	if os.Getenv(oocoreEnvGate) != "1" {
		t.Skipf("set %s=1 and %s to run the out-of-core gate", oocoreEnvGate, oocoreEnvDir)
	}
	dir := os.Getenv(oocoreEnvDir)
	if dir == "" {
		t.Fatalf("%s=1 but %s is unset", oocoreEnvGate, oocoreEnvDir)
	}
	return dir
}

// oocoreTrace writes cluster k's trace i into buf: c{k}_open, a run of
// (c{k}_op*, ...) slots, c{k}_use, and — unless i hits the drop cadence —
// c{k}_close. Event ids are the cluster's base + stable offsets.
func oocoreTrace(buf []seqdb.EventID, base seqdb.EventID, i int) []seqdb.EventID {
	buf = buf[:0]
	buf = append(buf, base) // c{k}_open
	for j := 0; j < oocoreOpsPerOp; j++ {
		buf = append(buf, base+3+seqdb.EventID((i*7+j*11)%oocoreOpAlphabet))
	}
	buf = append(buf, base+1) // c{k}_use
	if i%oocoreDropEvery != oocoreDropEvery-1 {
		buf = append(buf, base+2) // c{k}_close
	}
	return buf
}

// oocoreTraceBytes is the cache-estimator cost of one trace (24 per trace +
// 4 per event); the dropped close makes it i-dependent.
func oocoreTraceBytes(i int) int64 {
	n := int64(24 + 4*(2+oocoreOpsPerOp))
	if i%oocoreDropEvery != oocoreDropEvery-1 {
		n += 4
	}
	return n
}

func oocorePerCluster() int {
	// Traces per small cluster so its decoded estimate ≈ oocoreClusterKB.
	// Clusters are kept small on purpose: a seed's view materialises a
	// PositionIndex over the cluster, and that index costs several times the
	// view's decoded bytes (about 3.6× for these traces: position lists,
	// offset tables, prev-occurrence chains and postings) — it is the reason
	// the in-memory path cannot scale, and it bounds how big any single
	// cluster may be under the cap.
	return int(int64(oocoreClusterKB<<10) / oocoreTraceBytes(0))
}

func oocoreNumClusters() int {
	mb := 128
	if s := os.Getenv(oocoreEnvMB); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &mb); err != nil || mb < 16 {
			panic(fmt.Sprintf("bad %s=%q (want an integer ≥ 16)", oocoreEnvMB, s))
		}
	}
	// hotWeight cluster-equivalents for cluster 0, one per small cluster.
	n := mb*1024/oocoreClusterKB - oocoreHotWeight + 1
	if n < 4 {
		n = 4
	}
	return n
}

func oocoreClusterSize(cluster int) int {
	if cluster == 0 {
		return oocoreHotWeight * oocorePerCluster()
	}
	return oocorePerCluster()
}

// oocoreEventBase interns cluster k's alphabet (contiguously, in cluster
// order) and returns the id of c{k}_open.
func oocoreEventBase(dict *seqdb.Dictionary, k int) seqdb.EventID {
	base := dict.Intern(fmt.Sprintf("c%d_open", k))
	dict.Intern(fmt.Sprintf("c%d_use", k))
	dict.Intern(fmt.Sprintf("c%d_close", k))
	for j := 0; j < oocoreOpAlphabet; j++ {
		dict.Intern(fmt.Sprintf("c%d_op%d", k, j))
	}
	return base
}

// oocorePatternDump / oocoreRuleDump canonicalise results for cross-process
// comparison: sorted output order, syntactic keys, every counter included.
func oocorePatternDump(res *PatternResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "minsup=%d n=%d\n", res.MinSupport, len(res.Patterns))
	for _, p := range res.Patterns {
		fmt.Fprintf(&b, "%s sup=%d seqs=%d\n", p.Pattern.Key(), p.Support, p.SeqSupport)
	}
	return b.String()
}

func oocoreRuleDump(res *RuleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "minseqsup=%d n=%d\n", res.MinSeqSup, len(res.Rules))
	for _, r := range res.Rules {
		fmt.Fprintf(&b, "%s ssup=%d isup=%d conf=%.9f\n", r.Key(), r.SeqSupport, r.InstanceSupport, r.Confidence)
	}
	return b.String()
}

// TestOutOfCorePrepare generates the store and the reference answers. Run it
// WITHOUT a memory limit; it materialises the full database to compute them.
func TestOutOfCorePrepare(t *testing.T) {
	dir := oocoreDir(t)
	storeDir := filepath.Join(dir, "store")
	if err := os.RemoveAll(storeDir); err != nil {
		t.Fatal(err)
	}

	clusters := oocoreNumClusters()
	// Small WAL rotations and SegmentBytes 1, which publishes a segment at
	// every barrier, write many small cluster-pure segments.
	st, err := store.Open(store.Options{Dir: storeDir, Shards: 4,
		WALRotateBytes: 128 << 10, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	bases := make([]seqdb.EventID, clusters)
	for k := range bases {
		bases[k] = oocoreEventBase(st.Dict(), k)
	}
	ing, err := stream.Open(stream.Config{FlushBatch: 256, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]seqdb.EventID, 0, 2+oocoreOpsPerOp+1)
	var decoded int64
	traces := 0
	start := time.Now()
	for k := 0; k < clusters; k++ {
		for i := 0; i < oocoreClusterSize(k); i++ {
			id := fmt.Sprintf("c%d-%d", k, i)
			buf = oocoreTrace(buf, bases[k], i)
			if err := ing.IngestIDs(id, buf...); err != nil {
				t.Fatal(err)
			}
			if err := ing.CloseTrace(id); err != nil {
				t.Fatal(err)
			}
			decoded += oocoreTraceBytes(i)
			traces++
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("ingested %d traces (%d clusters, est. %d MiB decoded) in %v",
		traces, clusters, decoded>>20, time.Since(start))

	// Eager reopen: canonicalises the WAL tail into segments (so the capped
	// open recovers a fully segment-resident store) and supplies the
	// in-memory reference database.
	st, err = store.Open(store.Options{Dir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	nsegs := len(st.Segments())
	if nsegs < clusters/4 {
		t.Fatalf("fixture produced only %d segments for %d clusters; rotation sizing is off", nsegs, clusters)
	}
	db := st.Recovered().Database(st.Dict())

	// Threshold strictly between every small-cluster event (≤ perCluster)
	// and even cluster 0's op events (0.75 * hotWeight * perCluster) on one
	// side, and cluster 0's protocol events on the other — open and use occur
	// hotWeight*perCluster times, close 8/9 of that. 1.7*perCluster sits
	// between 1.5 and 1.77 with margin on both sides, so the seeds are
	// exactly {c0_open, c0_use, c0_close}.
	minSup := oocorePerCluster() * 17 / 10
	// The cap is 1/4 of the decoded size, floored at 24 MiB: below that the
	// Go runtime's baseline plus cluster 0's fixed-size view index dominate
	// and the gate would measure them, not the miner. At the CI default
	// (128 MiB decoded) the floor is inactive and the limit is exactly
	// decoded/4. The cache budget is decoded/16, making the database 16×
	// the budget — comfortably past the ≥ 4× acceptance bar.
	memLimit := decoded / 4
	if memLimit < 24<<20 {
		memLimit = 24 << 20
	}
	ref := oocoreReference{
		DecodedBytes:  decoded,
		MemLimitBytes: memLimit,
		CacheBytes:    decoded / 16,
		SegmentsTotal: nsegs,
		Clusters:      clusters,
		TracesTotal:   traces,
		MinSupport:    minSup,
		MinSeqSupport: minSup,
	}
	for k := 0; k < clusters; k++ {
		open := seqdb.Pattern{bases[k]}
		close_ := seqdb.Pattern{bases[k] + 2}
		ref.FullRules = append(ref.FullRules, EvaluateRule(db, open, close_))
	}
	ref.SelectiveRules = []Rule{
		EvaluateRule(db, seqdb.Pattern{bases[0]}, seqdb.Pattern{bases[0] + 2}),
		EvaluateRule(db, seqdb.Pattern{bases[0]}, seqdb.Pattern{bases[0] + 1}),
	}

	pres, err := MinePatterns(db, PatternOptions{MinInstanceSupport: minSup, MaxPatternLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Patterns) == 0 {
		t.Fatal("reference mined no patterns; threshold is off")
	}
	ref.Patterns = oocorePatternDump(pres)
	rres, err := MineRules(db, RuleOptions{MinSeqSupport: minSup, MinConfidence: 0.5,
		MaxPremiseLength: 1, MaxConsequentLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rres.Rules) == 0 {
		t.Fatal("reference mined no rules; threshold is off")
	}
	ref.Rules = oocoreRuleDump(rres)
	sumFull, err := CheckRules(db, ref.FullRules)
	if err != nil {
		t.Fatal(err)
	}
	if sumFull.TotalViolations() == 0 {
		t.Fatal("full rule set found no violations; drop cadence is off")
	}
	ref.CheckFull = sumFull.Render(db.Dict, 10)
	sumSel, err := CheckRules(db, ref.SelectiveRules)
	if err != nil {
		t.Fatal(err)
	}
	ref.CheckSelective = sumSel.Render(db.Dict, 10)

	blob, err := json.MarshalIndent(&ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "reference.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// sizing.env is what the CI job sources to set GOMEMLIMIT for the capped
	// process.
	env := fmt.Sprintf("GOMEMLIMIT=%d\n", ref.MemLimitBytes)
	if err := os.WriteFile(filepath.Join(dir, "sizing.env"), []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("prepared: %d MiB decoded, %d segments, GOMEMLIMIT=%d MiB, cache=%d MiB",
		decoded>>20, nsegs, ref.MemLimitBytes>>20, ref.CacheBytes>>20)
}

// TestOutOfCoreCapped replays the workloads out-of-core under the memory cap
// and byte-compares every answer against the prepared references.
func TestOutOfCoreCapped(t *testing.T) {
	dir := oocoreDir(t)
	blob, err := os.ReadFile(filepath.Join(dir, "reference.json"))
	if err != nil {
		t.Fatalf("no reference (run TestOutOfCorePrepare first): %v", err)
	}
	var ref oocoreReference
	if err := json.Unmarshal(blob, &ref); err != nil {
		t.Fatal(err)
	}

	// The CI job exports GOMEMLIMIT from sizing.env; when it is absent (local
	// runs, a misconfigured job) this guard imposes the same cap from inside.
	if os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(ref.MemLimitBytes)
	}
	// Sample the heap for the duration of the run: the gate's whole point is
	// that out-of-core mining completes within ~1/4 of the database size.
	// HeapAlloc transiently overshooting the limit by more than 20% means the
	// memory limit is not actually constraining the run (GOMEMLIMIT is soft:
	// brief overshoot during allocation bursts is expected, unbounded growth
	// is the OOM the gate exists to catch).
	var peak atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				if h := int64(ms.HeapAlloc); h > peak.Load() {
					peak.Store(h)
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
		if p := peak.Load(); p > ref.MemLimitBytes+ref.MemLimitBytes/5 {
			t.Errorf("peak HeapAlloc %d MiB exceeds the %d MiB cap by >20%%",
				p>>20, ref.MemLimitBytes>>20)
		}
		if t.Failed() {
			prof := filepath.Join(dir, "heap.pprof")
			if f, err := os.Create(prof); err == nil {
				_ = pprof.WriteHeapProfile(f)
				_ = f.Close()
				t.Logf("heap profile written to %s", prof)
			}
		}
		t.Logf("peak HeapAlloc %d MiB under a %d MiB cap", peak.Load()>>20, ref.MemLimitBytes>>20)
	}()

	ts, err := store.Open(store.Options{Dir: filepath.Join(dir, "store"), OutOfCore: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if n := ts.Recovered().NumSealed(); n != 0 {
		t.Fatalf("out-of-core open materialised %d sealed traces", n)
	}
	dict := ts.Dict()
	oo := OutOfCoreOptions{CacheBytes: ref.CacheBytes}

	// The ≤ 10% selectivity bar assumes cluster 0 is a small fraction of the
	// database. At reduced local scales (SPECMINE_OOCORE_MB below ~32) it is
	// not, so the bar is only enforced at CI scale; equivalence always is.
	assertSelective := func(label string, distinct int64) {
		frac := fmt.Sprintf("%d of %d distinct segment bodies", distinct, ref.SegmentsTotal)
		if ref.Clusters >= 64 {
			if distinct > int64(ref.SegmentsTotal/10) {
				t.Errorf("%s opened %s (want ≤ 10%%)", label, frac)
			}
		} else {
			t.Logf("%s opened %s (10%% bar not enforced at %d clusters)", label, frac, ref.Clusters)
		}
	}

	// Patterns: seeds isolated to cluster 0 by the support threshold.
	pres, stats, err := MineStore(ts, PatternOptions{MinInstanceSupport: ref.MinSupport, MaxPatternLength: 3, Workers: 1}, oo)
	if err != nil {
		t.Fatal(err)
	}
	if got := oocorePatternDump(pres); got != ref.Patterns {
		t.Errorf("capped MineStore diverges from the in-memory reference:\n got %q\nwant %q", got, ref.Patterns)
	}
	assertSelective("cluster-0 pattern mining", int64(stats.SegmentsTotal-stats.SegmentsSkipped))

	// Rules, same isolation.
	rres, stats, err := MineStoreRules(ts, RuleOptions{MinSeqSupport: ref.MinSeqSupport,
		MinConfidence: 0.5, MaxPremiseLength: 1, MaxConsequentLength: 1, Workers: 1}, oo)
	if err != nil {
		t.Fatal(err)
	}
	if got := oocoreRuleDump(rres); got != ref.Rules {
		t.Errorf("capped MineStoreRules diverges:\n got %q\nwant %q", got, ref.Rules)
	}
	assertSelective("cluster-0 rule mining", int64(stats.SegmentsTotal-stats.SegmentsSkipped))

	// Full sweep: every cluster has a rule, so no segment is skippable and
	// the whole database streams through the bounded cache.
	sumFull, stats, err := CheckStore(ts, ref.FullRules, oo)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumFull.Render(dict, 10); got != ref.CheckFull {
		t.Errorf("capped full CheckStore diverges:\n got %q\nwant %q", got, ref.CheckFull)
	}
	if stats.SegmentsSkipped != 0 {
		t.Errorf("full sweep skipped %d segments; the workload is meant to be unskippable", stats.SegmentsSkipped)
	}

	// Selective sweep: cluster-0 rules answer everything else from stats.
	sumSel, stats, err := CheckStore(ts, ref.SelectiveRules, oo)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumSel.Render(dict, 10); got != ref.CheckSelective {
		t.Errorf("capped selective CheckStore diverges:\n got %q\nwant %q", got, ref.CheckSelective)
	}
	assertSelective("selective check", stats.Obs.Counter("cache.bodies_opened").Value())
}
