package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"specmine/internal/fsim"
	"specmine/internal/seqdb"
)

// Write-ahead log framing. A WAL file is a flat run of records, each framed
//
//	uint32 LE payload length | payload | uint32 LE CRC-32 (IEEE) of payload
//
// with the record type as the payload's first byte. The frame is the unit of
// atomicity: a reader accepts the longest prefix of intact frames and treats
// the first short or checksum-failing frame as the end of the log, so a crash
// mid-write can shorten the log but never corrupt what came before — the
// LogBase regime of sequential writes with recovery by prefix replay.
//
// Record types:
//
//	recHeader    uvarint formatVersion | uvarint shard | uvarint sealedBase
//	recDictName  name bytes (dictionary log only; the id is the record's rank)
//	recOpen      uvarint handle | trace id bytes
//	recEvents    uvarint handle | uvarint n | n x uvarint event id
//	recSeal      uvarint handle
//	recCommit    (empty) — generation commit marker, see below
//
// Handles keep per-event records free of trace-id strings. A trace gets its
// handle once, when it opens, and keeps it until it seals: a rotation re-logs
// each open trace under the handle it already has, and only recovery
// renumbers, giving the open traces it recovers 0..n-1 in id order. sealedBase in the header
// is the number of sealed traces already covered by segment files when the
// generation was created: replay skips seal records up to the segment
// coverage and appends only the genuinely newer traces.
//
// recCommit guards against torn generation publishes. A fresh generation is
// created with its initial records (header + re-log of open traces) followed
// by one recCommit frame; everything later is appended past it. A rotation
// publish interrupted mid-copy (a non-atomic rename on a faulty filesystem)
// leaves a file whose surviving frame prefix is valid but incomplete — and
// since recovery prefers the highest generation number, such a file would
// silently shadow the intact predecessor and drop acked open traces. The
// marker makes the tear detectable: a generation without recCommit is
// discarded whenever an older generation survives to recover from. (A lone
// marker-less WAL is still accepted: nothing older exists to fall back to,
// and direct creation — a fresh shard — risks no predecessor either.)

const (
	recHeader   byte = 1
	recDictName byte = 2
	recOpen     byte = 3
	recEvents   byte = 4
	recSeal     byte = 5
	recCommit   byte = 6
)

const (
	walFormatVersion = 1
	// maxRecordBytes bounds a single record; anything larger in a length
	// prefix marks the frame — and therefore the rest of the file — corrupt.
	maxRecordBytes = 1 << 26
	// walFlushThreshold is how many buffered bytes a WAL accumulates before
	// group-committing to the OS on its own (barriers flush sooner).
	walFlushThreshold = 64 << 10
)

// appendFrame frames payload onto dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// openFrame reserves a frame's length prefix on buf and returns the payload
// start; the caller appends the payload and calls closeFrame. Framing in
// place this way lets the commit path encode a record straight into its
// scratch (or the group-commit buffer) without allocating a payload slice.
func openFrame(buf []byte) ([]byte, int) {
	buf = append(buf, 0, 0, 0, 0)
	return buf, len(buf)
}

// closeFrame backfills the length prefix of the frame whose payload begins at
// start and appends the checksum.
func closeFrame(buf []byte, start int) []byte {
	payload := buf[start:]
	binary.LittleEndian.PutUint32(buf[start-4:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// scanFrames walks the intact frame prefix of data, invoking fn per payload,
// and returns the byte length of that prefix. Corruption or truncation ends
// the scan without error — the tail simply did not survive; an fn error
// aborts the scan and is returned.
func scanFrames(data []byte, fn func(payload []byte) error) (int, error) {
	off := 0
	for {
		if len(data)-off < 8 {
			return off, nil
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > maxRecordBytes || len(data)-off < 8+n {
			return off, nil
		}
		payload := data[off+4 : off+4+n]
		if binary.LittleEndian.Uint32(data[off+4+n:]) != crc32.ChecksumIEEE(payload) {
			return off, nil
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += 8 + n
	}
}

func encodeHeader(shard, sealedBase int) []byte {
	p := []byte{recHeader}
	p = binary.AppendUvarint(p, walFormatVersion)
	p = binary.AppendUvarint(p, uint64(shard))
	return binary.AppendUvarint(p, uint64(sealedBase))
}

func encodeDictName(name string) []byte {
	p := make([]byte, 0, 1+len(name))
	p = append(p, recDictName)
	return append(p, name...)
}

// The encode* helpers below are the single definition of each record's byte
// layout. They append to a caller-supplied buffer, so the ingest hot path
// reuses them between openFrame/closeFrame for zero-allocation in-place
// framing and the rotation/recovery paths call them with nil — one encoder
// per record type, one format.

func encodeOpen(dst []byte, handle uint64, id string) []byte {
	dst = append(dst, recOpen)
	dst = binary.AppendUvarint(dst, handle)
	return append(dst, id...)
}

func encodeEvents(dst []byte, handle uint64, events []seqdb.EventID) []byte {
	dst = append(dst, recEvents)
	dst = binary.AppendUvarint(dst, handle)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for _, ev := range events {
		dst = binary.AppendUvarint(dst, uint64(ev))
	}
	return dst
}

func encodeSeal(dst []byte, handle uint64) []byte {
	dst = append(dst, recSeal)
	return binary.AppendUvarint(dst, handle)
}

// walFile is an append-only log file with an in-process group-commit buffer.
// Appends frame records into the buffer; flush writes the buffer to the OS in
// one write (and fsyncs when the store runs with Options.Sync). The owner
// serialises access (ShardLog.mu or dictLog.mu).
type walFile struct {
	path string
	f    fsim.File
	buf  []byte
	size int64 // bytes handed to the OS, excluding buf
	sync bool
	// met, when non-nil and enabled, observes every flush (latency, batch
	// size, fsync portion) into the store's registry.
	met *storeMetrics
}

func (w *walFile) append(payload []byte) {
	w.buf = appendFrame(w.buf, payload)
}

// pending reports the file's logical size including unflushed bytes.
func (w *walFile) pending() int64 { return w.size + int64(len(w.buf)) }

func (w *walFile) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	instrumented := w.met != nil && w.met.enabled
	var start time.Time
	if instrumented {
		w.met.walFlushBytes.Observe(int64(len(w.buf)))
		start = time.Now()
	}
	n, err := w.f.Write(w.buf)
	if err != nil {
		// Consume the prefix the OS accepted: a later retry must resume at
		// the exact byte boundary, or the re-written records would land
		// after a torn frame and be unreachable to recovery.
		w.size += int64(n)
		w.buf = append(w.buf[:0], w.buf[n:]...)
		return fmt.Errorf("store: flushing %s: %w", w.path, err)
	}
	if w.sync {
		var syncStart time.Time
		if instrumented {
			syncStart = time.Now()
		}
		err := w.f.Sync()
		if instrumented {
			w.met.walFsyncNs.Observe(time.Since(syncStart).Nanoseconds())
		}
		if err != nil {
			// The batch reached the OS but is not durable, and its tail
			// record may be one a caller is about to be told failed. Pull
			// the whole batch back out of the file so nothing unfsynced —
			// least of all a rejected record — can resurface at recovery;
			// the buffer keeps the bytes, so a retry resumes exactly here.
			_ = w.f.Truncate(w.size)
			return fmt.Errorf("store: syncing %s: %w", w.path, err)
		}
	}
	w.size += int64(n)
	w.buf = w.buf[:0]
	if instrumented {
		w.met.walFlushNs.Observe(time.Since(start).Nanoseconds())
	}
	return nil
}

func (w *walFile) close() error {
	err := w.flush()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: closing %s: %w", w.path, cerr)
	}
	return err
}

// createWALDirect creates a WAL file in place, without the temp-file +
// rename dance. Only valid when no predecessor generation exists — a fresh
// store or a fresh shard — where a crash mid-create loses nothing: the next
// open simply finds a short (or absent) log and starts over.
func createWALDirect(fs fsim.FS, path string, sync bool, records ...[]byte) (*walFile, error) {
	var buf []byte
	for _, r := range records {
		buf = appendFrame(buf, r)
	}
	buf = appendFrame(buf, []byte{recCommit})
	// O_APPEND matters beyond convenience: flush pulls unsynced batches back
	// with ftruncate on fsync failure, and appends must then continue at the
	// new end of file, not at a stale offset past it.
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", path, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: writing %s: %w", path, err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: syncing %s: %w", path, err)
		}
		// The machine-crash guarantee covers the file's existence too, not
		// just its contents.
		if err := syncDir(fs, path); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &walFile{path: path, f: f, size: int64(len(buf)), sync: sync}, nil
}

// createWAL atomically creates a WAL file at path holding the given records
// (header first), replacing any previous file at that path last. The write
// goes through a temporary name so a crash can never leave a half-written
// file under the real name — required whenever an older generation still
// holds the data being re-logged.
func createWAL(fs fsim.FS, path string, sync bool, records ...[]byte) (*walFile, error) {
	tmp := path + ".tmp"
	var buf []byte
	for _, r := range records {
		buf = appendFrame(buf, r)
	}
	buf = appendFrame(buf, []byte{recCommit})
	if err := fs.WriteFile(tmp, buf, 0o644); err != nil {
		return nil, fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	if sync {
		if err := syncFile(fs, tmp); err != nil {
			return nil, err
		}
	}
	if err := fs.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("store: publishing %s: %w", path, err)
	}
	if sync {
		if err := syncDir(fs, path); err != nil {
			return nil, err
		}
	}
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: reopening %s: %w", path, err)
	}
	return &walFile{path: path, f: f, size: int64(len(buf)), sync: sync}, nil
}

// walHasCommit reports whether the intact frame prefix of a WAL image carries
// the generation commit marker — i.e. the initial creation write survived in
// full, not just a torn prefix of it. The marker ends a fresh generation's
// initial records, so the scan stops at the first one instead of checksumming
// the rest of the log.
func walHasCommit(data []byte) bool {
	_, err := scanFrames(data, func(p []byte) error {
		if len(p) == 1 && p[0] == recCommit {
			return errReplayStop
		}
		return nil
	})
	return err != nil
}

func syncFile(fs fsim.FS, path string) error {
	if err := fs.SyncPath(path); err != nil {
		return fmt.Errorf("store: fsync %s: %w", path, err)
	}
	return nil
}

func syncDir(fs fsim.FS, path string) error {
	return syncFile(fs, filepath.Dir(path))
}
