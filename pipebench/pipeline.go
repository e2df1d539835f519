package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"specmine/internal/core"
	"specmine/internal/obs"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/stream"
	"specmine/internal/verify"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Times are nanoseconds since the repetition started; the spans of one
// repetition share Rep, and Parent is the enclosing span's ID (0 for the
// repetition's root).
type span struct {
	Rep    int    `json:"rep"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps one repetition's spans in memory. A nil tracer records
// nothing, which is how the untraced repetitions run.
type tracer struct {
	rep   int
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Rep: t.rep, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// repOutput is what one repetition produced and measured.
type repOutput struct {
	wall      time.Duration
	attempted int64
	failed    int64

	rules     []core.Rule
	check     verify.Summary
	mineStats *core.OutOfCoreStats

	peakHeap uint64 // bytes above the post-GC baseline taken before the repetition
	disk     diskUsage
	cpu      time.Duration
	gcCycles uint32
	gcPause  time.Duration

	// prods are the repetition's producers, with their call latencies
	// (traced) and last snapshot (keep).
	prods []producer
	// Traced repetitions only: the spans, and the registry shared by store,
	// stream and cache.
	tr  *tracer
	reg *obs.Registry
}

// call counts one layer call and passes its error through.
func (r *repOutput) call(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// runRep runs one repetition in dir, which must not exist yet. traced
// attaches a registry and records spans and per-call latencies; keep retains
// what the oracle needs.
func runRep(w workload, in *inputs, dir string, rep int, traced, keep bool) (*repOutput, error) {
	r := &repOutput{}
	if traced {
		r.reg = obs.NewRegistry()
		r.tr = &tracer{rep: rep}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	heap := startHeapSampler()
	err := r.pipeline(w, in, dir, keep)
	r.peakHeap = heap.stop()
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if err != nil {
		return r, err
	}
	r.disk, err = measureDisk(dir)
	return r, err
}

// pipeline is the timed part of a repetition: durable ingest into a fresh
// store, the final barrier and close, an out-of-core reopen, MineStoreRules
// and CheckStore.
func (r *repOutput) pipeline(w workload, in *inputs, dir string, keep bool) error {
	tr := r.tr
	start := time.Now()
	if tr != nil {
		tr.t0 = start
	}
	root := tr.begin("pipeline", 0)

	open := tr.begin("open", root)
	sp := tr.begin("store.open", open)
	st, err := store.Open(store.Options{Dir: dir, Shards: shards, Obs: r.reg})
	tr.end(sp)
	if r.call(err) != nil {
		return err
	}
	for _, name := range in.dict.Export() {
		st.Dict().Intern(name)
	}
	sp = tr.begin("stream.open", open)
	ing, err := stream.Open(stream.Config{Store: st, Engine: in.engine, Obs: r.reg})
	tr.end(sp)
	tr.end(open)
	if r.call(err) != nil {
		st.Close()
		return err
	}

	ingest := tr.begin("ingest", root)
	var wg sync.WaitGroup
	r.prods = make([]producer, producers)
	for p := range r.prods {
		r.prods[p] = producer{ing: ing, ops: in.ops[p], traced: tr != nil, keep: keep}
		if w.online && p == 0 {
			r.prods[p].snapEvery = in.snapEvery
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.prods[p].run()
		}()
	}
	wg.Wait()
	tr.end(ingest)
	var ingestErr error
	for _, p := range r.prods {
		r.attempted += p.attempted
		r.failed += p.failed
		if ingestErr == nil {
			ingestErr = p.err
		}
	}
	if ingestErr != nil {
		ing.Close()
		st.Close()
		return fmt.Errorf("ingest: %w", ingestErr)
	}

	barrier := tr.begin("barrier", root)
	sp = tr.begin("stream.snapshot", barrier)
	view, err := ing.Snapshot()
	tr.end(sp)
	tr.end(barrier)
	if r.call(err) == nil && view.DB.NumSequences() != len(in.traces) {
		err = fmt.Errorf("final snapshot holds %d traces, %d were sealed", view.DB.NumSequences(), len(in.traces))
	}
	if err != nil {
		ing.Close()
		st.Close()
		return err
	}

	closing := tr.begin("close", root)
	sp = tr.begin("stream.close", closing)
	err = r.call(ing.Close())
	tr.end(sp)
	sp = tr.begin("store.close", closing)
	if cerr := r.call(st.Close()); err == nil {
		err = cerr
	}
	tr.end(sp)
	tr.end(closing)
	if err != nil {
		return err
	}

	sp = tr.begin("reopen", root)
	st, err = store.Open(store.Options{Dir: dir, OutOfCore: true, Obs: r.reg})
	tr.end(sp)
	if r.call(err) != nil {
		return err
	}
	oo := core.OutOfCoreOptions{Obs: r.reg}
	if w.cacheDiv > 0 {
		oo.CacheBytes = in.decoded / w.cacheDiv
	}
	sp = tr.begin("mine", root)
	mined, mineStats, err := core.MineStoreRules(st, w.mineOpts, oo)
	tr.end(sp)
	if r.call(err) != nil {
		st.Close()
		return err
	}
	sp = tr.begin("check", root)
	r.check, _, err = core.CheckStore(st, in.spec, oo)
	tr.end(sp)
	if r.call(err) != nil {
		st.Close()
		return err
	}
	closing = tr.begin("close", root)
	sp = tr.begin("store.close", closing)
	err = r.call(st.Close())
	tr.end(sp)
	tr.end(closing)
	tr.end(root)
	r.wall = time.Since(start)
	r.rules, r.mineStats = mined.Rules, mineStats
	for _, s := range r.prods[0].snaps {
		tr.add("stream.snapshot", ingest, s[0], s[1])
	}
	return err
}

// producer is one closed-loop client: it issues its share of the op stream
// in order, each call waiting for the previous one's acknowledgement.
type producer struct {
	ing *stream.Ingester
	ops []op
	// snapEvery > 0 takes a snapshot after every snapEvery of this
	// producer's own seals.
	snapEvery int
	traced    bool
	keep      bool

	attempted, failed int64
	err               error
	acks              []time.Duration
	snaps             [][2]time.Time
	// lastView and lastOnline are the last snapshot and its summary, kept
	// for the oracle (keep only).
	lastView   *seqdb.Database
	lastOnline verify.Summary
}

func (p *producer) run() {
	if p.traced {
		p.acks = make([]time.Duration, 0, len(p.ops))
	}
	sealed := 0
	for _, o := range p.ops {
		var t time.Time
		if p.traced {
			t = time.Now()
		}
		var err error
		if o.seal {
			err = p.ing.CloseTrace(o.id)
		} else {
			err = p.ing.IngestIDs(o.id, o.events...)
		}
		if p.traced {
			p.acks = append(p.acks, time.Since(t))
		}
		p.count(err)
		if err != nil || !o.seal || p.snapEvery == 0 {
			continue
		}
		if sealed++; sealed%p.snapEvery == 0 {
			p.snapshot()
		}
	}
}

// snapshot is the online workload's read: a consistent view and the
// conformance summary accumulated over it.
func (p *producer) snapshot() {
	start := time.Now()
	v, err := p.ing.Snapshot()
	var sum verify.Summary
	if err == nil {
		sum = verify.NewSummary(v.Reports)
	}
	if p.traced {
		p.snaps = append(p.snaps, [2]time.Time{start, time.Now()})
	}
	p.count(err)
	if err == nil && p.keep {
		p.lastView, p.lastOnline = v.DB, sum
	}
}

func (p *producer) count(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if p.err == nil {
			p.err = err
		}
	}
}

// heapSampler tracks the peak of live heap objects every 10 ms.
type heapSampler struct {
	base uint64
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{base: heapObjects(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := heapObjects(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak above the starting baseline.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	if v := heapObjects(); v > h.peak.Load() {
		h.peak.Store(v)
	}
	return h.peak.Load() - min(h.base, h.peak.Load())
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// diskUsage is a closed store directory's footprint.
type diskUsage struct {
	total, wal, seg int64
	segments        int
}

func measureDisk(dir string) (diskUsage, error) {
	var u diskUsage
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		u.total += info.Size()
		switch {
		case strings.HasSuffix(path, ".wal"):
			u.wal += info.Size()
		case strings.HasSuffix(path, ".seg"):
			u.seg += info.Size()
			u.segments++
		}
		return nil
	})
	return u, err
}
