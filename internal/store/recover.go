package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"specmine/internal/seqdb"
)

// Crash recovery. Open rebuilds each shard's state in two layers, newest
// last:
//
//  1. the segment chain — the maximal run of intact segment files covering
//     seal ordinals [0, C) — supplies the bulk of the sealed traces without
//     touching the WAL;
//  2. the WAL tail — the longest intact frame prefix of the newest WAL
//     generation — is replayed over it: seal records with ordinals below C
//     are skipped (their traces already live in segments), newer seals append
//     their traces, and whatever is left open at the end of the prefix is the
//     shard's recovered open-trace set.
//
// A torn frame ends the prefix; nothing after it is trusted, so a partial
// record can never surface as data. One asymmetric case needs care: segments
// are published only after the WAL covering their seals is flushed, so a
// surviving segment normally implies the seals survived too — but a WAL
// truncated below the segment barrier (disk fault, or the crash-fuzz tests
// doing it on purpose) would make replay resurrect segment-sealed traces as
// open ghosts. Recovery detects this (fewer replayed seals than the segment
// coverage) and drops the recovered open set: sealed state stays exact,
// open-trace recovery is best effort.
//
// After recovery, Open canonicalises the shard through
// ShardLog.CheckpointLocked, the same checkpoint a barrier's rotation and a
// clean close run: WAL-recovered sealed traces are rolled into a fresh
// segment and a new WAL generation is created holding only the header and a
// re-log of the open traces, numbered 0..n-1 in id order. Every later recovery therefore starts from
// segments + a short WAL, keeping replay O(open data), not O(history), and a
// reopen after a clean close replays no sealed history at all.

// OpenTrace is a trace that was open (ingested but not sealed) when the
// store's state was captured.
type OpenTrace struct {
	// ID is the trace id under which events were being ingested.
	ID string
	// Handle is the trace's WAL handle, which its records carry from the
	// open until the seal. Recovery numbers the recovered open traces
	// 0..n-1 in id order, so whoever continues ingest gives new traces
	// handles from n on.
	Handle uint64
	// Events are the events ingested so far, in order.
	Events seqdb.Sequence
}

// RecoveredShard is one shard's recovered state.
type RecoveredShard struct {
	// Sequences are the shard's sealed traces in seal order — exactly the
	// shard database the pre-crash ingester held.
	Sequences []seqdb.Sequence
	// Open are the traces that were still open, sorted by trace id.
	Open []OpenTrace
}

// Recovered is the whole store's recovered state, indexed by shard.
type Recovered struct {
	Shards []RecoveredShard
}

// Database merges the recovered sealed traces into a single Database sharing
// dict, shard-major in seal order — the same ordering a streaming Snapshot
// produces, so miners see the identical database either way.
func (r *Recovered) Database(dict *seqdb.Dictionary) *seqdb.Database {
	db := seqdb.NewDatabaseWithDict(dict)
	for _, sh := range r.Shards {
		db.Sequences = append(db.Sequences, sh.Sequences...)
	}
	return db
}

// NumSealed returns the total number of recovered sealed traces.
func (r *Recovered) NumSealed() int {
	n := 0
	for _, sh := range r.Shards {
		n += len(sh.Sequences)
	}
	return n
}

// NumOpen returns the total number of recovered open traces.
func (r *Recovered) NumOpen() int {
	n := 0
	for _, sh := range r.Shards {
		n += len(sh.Open)
	}
	return n
}

// errReplayStop marks the first record of the untrusted WAL tail: replay
// treats everything before it as the surviving prefix and stops cleanly.
var errReplayStop = errors.New("store: replay stop")

// recoverDict replays the dictionary log into a fresh dictionary and reopens
// the log for appending (truncating any torn tail first).
func (st *Store) recoverDict() error {
	path := filepath.Join(st.opts.Dir, "dict.wal")
	st.dict = seqdb.NewDictionary()
	buf, err := st.fs.ReadFile(path)
	switch {
	case err == nil:
		var names []string
		valid, err := scanFrames(buf, func(p []byte) error {
			if len(p) == 1 && p[0] == recCommit {
				return nil // creation marker, carries no name
			}
			if len(p) == 0 || p[0] != recDictName {
				return errReplayStop
			}
			names = append(names, string(p[1:]))
			return nil
		})
		if err != nil && !errors.Is(err, errReplayStop) {
			return err
		}
		if err := st.dict.Import(names); err != nil {
			return err
		}
		if int64(valid) < int64(len(buf)) {
			if err := st.fs.Truncate(path, int64(valid)); err != nil {
				return fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
			}
		}
		f, err := st.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: reopening %s: %w", path, err)
		}
		st.dictLog.wal = &walFile{path: path, f: f, size: int64(valid), sync: st.opts.Sync, met: &st.met}
		return nil
	case os.IsNotExist(err):
		wal, err := createWALDirect(st.fs, path, st.opts.Sync)
		if err != nil {
			return err
		}
		wal.met = &st.met
		st.dictLog.wal = wal
		return nil
	default:
		return fmt.Errorf("store: reading %s: %w", path, err)
	}
}

// recoverShard rebuilds shard i from its directory and returns its seeded
// ShardLog plus the recovered state.
func (st *Store) recoverShard(i int) (*ShardLog, RecoveredShard, error) {
	dir := filepath.Join(st.opts.Dir, fmt.Sprintf("shard-%03d", i))
	if err := st.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveredShard{}, err
	}
	entries, err := st.fs.ReadDir(dir)
	if err != nil {
		return nil, RecoveredShard{}, err
	}

	type walCand struct {
		gen  uint64
		path string
	}
	var segInfos []segmentInfo
	var cands []walCand
	var maxGen uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Torn publish from a crashed rename; the real file never
			// appeared, so the content is covered elsewhere or lost.
			if err := st.fs.Remove(filepath.Join(dir, name)); err != nil {
				st.warn("shard %d: removing stale %s: %v", i, name, err)
			}
		case strings.HasSuffix(name, ".seg"):
			from, to, ok := parseSegmentName(name)
			if !ok {
				return nil, RecoveredShard{}, fmt.Errorf("unrecognised segment file %s", name)
			}
			fi, err := e.Info()
			if err != nil {
				return nil, RecoveredShard{}, err
			}
			segInfos = append(segInfos, segmentInfo{from: from, to: to, path: filepath.Join(dir, name), size: fi.Size()})
		case strings.HasSuffix(name, ".wal"):
			gen, ok := parseWALName(name)
			if !ok {
				return nil, RecoveredShard{}, fmt.Errorf("unrecognised WAL file %s", name)
			}
			cands = append(cands, walCand{gen: gen, path: filepath.Join(dir, name)})
			if gen > maxGen {
				maxGen = gen
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].gen > cands[b].gen })

	chain, sealed, covered, err := st.loadSegmentChain(segInfos, i)
	if err != nil {
		return nil, RecoveredShard{}, err
	}

	// Replay the newest complete WAL generation. A generation missing its
	// commit marker was torn mid-publish (a faulted rotation rename); its
	// frame prefix is valid but incomplete, so it must not shadow the intact
	// predecessor — discard it and fall back. A lone marker-less generation
	// is still accepted: nothing older exists to recover from instead.
	var walSealed []seqdb.Sequence
	var open []OpenTrace
	for k, c := range cands {
		buf, rerr := st.fs.ReadFile(c.path)
		if rerr != nil {
			return nil, RecoveredShard{}, rerr
		}
		// Only a generation with a predecessor needs the marker check; the
		// oldest one is replayed whatever its prefix holds.
		if k+1 < len(cands) && !walHasCommit(buf) {
			st.warn("shard %d: discarding torn WAL generation %s (no commit marker)", i, filepath.Base(c.path))
			if err := st.fs.Remove(c.path); err != nil {
				st.warn("shard %d: removing torn %s: %v", i, filepath.Base(c.path), err)
			}
			continue
		}
		walSealed, open, err = st.replayShardWAL(buf, c.path, i, covered)
		if err != nil {
			return nil, RecoveredShard{}, err
		}
		sealed = append(sealed, walSealed...)
		break
	}
	sort.Slice(open, func(a, b int) bool { return open[a].ID < open[b].ID })
	for k := range open {
		open[k].Handle = uint64(k)
	}

	// Canonicalise through the shard's one checkpoint: the WAL-recovered
	// sealed tail becomes a segment and a fresh generation holds just the
	// header and the open traces. Ordering matters for crash safety: the old
	// generation keeps covering everything until the new one is in place. No
	// other goroutine can reach sl yet, so its lock is not needed. In an
	// out-of-core open, sealed holds only the WAL tail (chain bodies were not
	// decoded), so the shard total comes from the chain coverage instead of
	// len(sealed).
	sl := &ShardLog{st: st, shard: i, dir: dir, covered: covered, sized: covered, segs: chain, gen: maxGen}
	if err := sl.CheckpointLocked(walSealed, covered+len(walSealed), open); err != nil {
		return nil, RecoveredShard{}, err
	}
	if st.opts.OutOfCore {
		// The WAL tail was just canonicalised into a segment, so every
		// sealed trace is reachable through the catalog; Recovered reports
		// open traces only, keeping the handle metadata-sized.
		sealed = nil
	}
	return sl, RecoveredShard{Sequences: sealed, Open: open}, nil
}

// openTraceRecords builds the records of a fresh WAL generation: the header
// plus a re-log of the open traces, in the order given, under their handles.
func openTraceRecords(shard, sealedTotal int, open []OpenTrace) [][]byte {
	records := [][]byte{encodeHeader(shard, sealedTotal)}
	for _, tr := range open {
		records = append(records, encodeOpen(nil, tr.Handle, tr.ID))
		if len(tr.Events) > 0 {
			records = append(records, encodeEvents(nil, tr.Handle, tr.Events))
		}
	}
	return records
}

// loadSegmentChain selects and decodes the shard's segment chain. A segment
// that fails validation is dropped and selection retried: segments are
// written directly (not via rename), so a crash can tear the newest one —
// but its traces are still covered, either by the subsumed originals a
// crashed compaction left behind in a store written before segments were
// born at their final size (re-selected on retry) or by the WAL, whose
// generations are only retired after a completed rotation. Corruption that
// leaves real coverage gaps still fails hard via selectSegmentChain.
func (st *Store) loadSegmentChain(infos []segmentInfo, shard int) ([]segmentInfo, []seqdb.Sequence, int, error) {
	for {
		chain, subsumed, err := selectSegmentChain(infos)
		if err != nil {
			return nil, nil, 0, err
		}
		var sealed []seqdb.Sequence
		covered := 0
		bad := -1
		var badErr error
		for k, info := range chain {
			buf, err := st.fs.ReadFile(info.path)
			if err != nil {
				return nil, nil, 0, err
			}
			v, perr := parseSegment(buf)
			if perr == nil && (v.shard != shard || v.from != info.from || v.numTraces() != info.to-info.from) {
				perr = fmt.Errorf("footer (shard %d, from %d, %d traces) contradicts the name", v.shard, v.from, v.numTraces())
			}
			var seqs []seqdb.Sequence
			if perr == nil && !st.opts.OutOfCore {
				// Out-of-core opens stop at the checksum: body and footer
				// CRCs already prove the file intact end to end, and the
				// traces stay on disk until a cache pool pins them. (A
				// valid-CRC body whose varint stream is malformed — a writer
				// bug, not a crash artifact — would surface at first decode
				// instead of here.)
				seqs, perr = v.decodeAll()
			}
			if perr != nil {
				bad, badErr = k, fmt.Errorf("%s: %w", info.path, perr)
				break
			}
			sealed = append(sealed, seqs...)
			covered = info.to
		}
		if bad < 0 {
			// Only now that every chain segment decoded is it safe to drop
			// the subsumed files an older store's crashed compaction left
			// behind — they are the fallback if a merged segment had been
			// torn.
			for _, s := range subsumed {
				if err := st.fs.Remove(s.path); err != nil {
					st.warn("shard %d: removing subsumed %s: %v", shard, filepath.Base(s.path), err)
				}
			}
			return chain, sealed, covered, nil
		}
		st.warn("shard %d: discarding torn segment %s: %v", shard, filepath.Base(chain[bad].path), badErr)
		if err := st.fs.Remove(chain[bad].path); err != nil {
			// Exclude it in memory and continue; the leaked file is retried
			// (and re-warned about) on the next open.
			st.warn("shard %d: removing torn %s: %v", shard, filepath.Base(chain[bad].path), err)
		}
		kept := infos[:0]
		for _, info := range infos {
			if info.path != chain[bad].path {
				kept = append(kept, info)
			}
		}
		infos = kept
	}
}

// selectSegmentChain orders the discovered segments and returns the maximal
// contiguous chain from ordinal 0 plus the files a compacted successor
// subsumes (left on disk — they are the fallback while the chain is
// unvalidated). Gaps and partial overlaps cannot be produced by the writer
// and are surfaced as errors.
func selectSegmentChain(infos []segmentInfo) (chain, subsumed []segmentInfo, err error) {
	sort.Slice(infos, func(a, b int) bool {
		if infos[a].from != infos[b].from {
			return infos[a].from < infos[b].from
		}
		return infos[a].to > infos[b].to
	})
	covered := 0
	for _, s := range infos {
		switch {
		case s.to <= covered:
			// Fully covered by a merged successor: a crash between a
			// compaction's write and its deletes left it behind (stores
			// written before segments were born at their final size).
			subsumed = append(subsumed, s)
		case s.from == covered:
			chain = append(chain, s)
			covered = s.to
		case s.from > covered:
			return nil, nil, fmt.Errorf("segment coverage gap: [%d,%d) follows %d", s.from, s.to, covered)
		default:
			return nil, nil, fmt.Errorf("segment overlap: [%d,%d) against coverage %d", s.from, s.to, covered)
		}
	}
	return chain, subsumed, nil
}

// replayShardWAL replays the surviving frame prefix of a shard WAL image over
// segment coverage [0, covered), returning the newly sealed traces (ordinals
// >= covered, in order) and the traces left open. path is for error messages.
func (st *Store) replayShardWAL(buf []byte, path string, shard, covered int) ([]seqdb.Sequence, []OpenTrace, error) {
	type openState struct {
		id     string
		events seqdb.Sequence
	}
	open := make(map[uint64]*openState)
	var order []uint64
	var sealed []seqdb.Sequence
	seals := 0
	dictSize := uint64(st.dict.Size())
	sawHeader := false
	var hardErr error

	_, err := scanFrames(buf, func(p []byte) error {
		if len(p) == 0 {
			return errReplayStop
		}
		body := p[1:]
		readUvarint := func() (uint64, bool) {
			v, n := binary.Uvarint(body)
			if n <= 0 {
				return 0, false
			}
			body = body[n:]
			return v, true
		}
		switch p[0] {
		case recHeader:
			ver, ok := readUvarint()
			if !ok || ver != walFormatVersion || sawHeader {
				return errReplayStop
			}
			sh, ok := readUvarint()
			if !ok || int(sh) != shard {
				return errReplayStop
			}
			base, ok := readUvarint()
			if !ok {
				return errReplayStop
			}
			if int(base) > covered {
				hardErr = fmt.Errorf("%s declares %d sealed traces in segments, only %d covered — segment files are missing", path, base, covered)
				return hardErr
			}
			sawHeader = true
			seals = int(base)
		case recOpen:
			h, ok := readUvarint()
			if !ok {
				return errReplayStop
			}
			if _, dup := open[h]; dup {
				return errReplayStop
			}
			open[h] = &openState{id: string(body)}
			order = append(order, h)
		case recEvents:
			h, ok := readUvarint()
			if !ok {
				return errReplayStop
			}
			tr := open[h]
			if tr == nil {
				return errReplayStop
			}
			n, ok := readUvarint()
			if !ok {
				return errReplayStop
			}
			evs := make(seqdb.Sequence, 0, n)
			for k := uint64(0); k < n; k++ {
				ev, ok := readUvarint()
				if !ok || ev >= dictSize {
					// An id the dictionary log never flushed: by the
					// dict-before-shard flush ordering this frame belongs to
					// the lost tail, whatever its checksum says.
					return errReplayStop
				}
				evs = append(evs, seqdb.EventID(ev))
			}
			tr.events = append(tr.events, evs...)
		case recSeal:
			h, ok := readUvarint()
			if !ok {
				return errReplayStop
			}
			tr := open[h]
			if tr == nil {
				return errReplayStop
			}
			delete(open, h)
			if seals >= covered {
				sealed = append(sealed, tr.events)
			}
			seals++
		case recCommit:
			// Generation commit marker; carries no state.
		default:
			return errReplayStop
		}
		return nil
	})
	if hardErr != nil {
		return nil, nil, hardErr
	}
	if err != nil && !errors.Is(err, errReplayStop) {
		return nil, nil, err
	}
	if seals < covered {
		// The WAL was cut below the segment barrier: traces it shows as open
		// may in truth be sealed inside segments. Sealed state is exact
		// either way; drop the unreliable open set.
		return nil, nil, nil
	}
	out := make([]OpenTrace, 0, len(open))
	for _, h := range order {
		if tr, ok := open[h]; ok {
			out = append(out, OpenTrace{ID: tr.id, Events: tr.events})
		}
	}
	return sealed, out, nil
}
