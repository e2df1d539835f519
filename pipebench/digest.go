package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"slices"

	"specmine/internal/core"
	"specmine/internal/seqdb"
	"specmine/internal/verify"
)

// digest hashes the benchmark's inputs and outputs field by field, so two
// results compare equal exactly when every field does.
type digest struct {
	h hash.Hash
	b [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int64) {
	binary.LittleEndian.PutUint64(d.b[:], uint64(v))
	d.h.Write(d.b[:])
}

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) events(es []seqdb.EventID) {
	d.int(int64(len(es)))
	for _, e := range es {
		d.int(int64(e))
	}
}

func (d *digest) rule(r core.Rule) {
	d.events(r.Pre)
	d.events(r.Post)
	d.int(int64(r.SeqSupport))
	d.int(int64(r.InstanceSupport))
	d.int(int64(math.Float64bits(r.Confidence)))
}

func (d *digest) sum() []byte { return d.h.Sum(nil) }

// rulesDigest hashes a rule list in order: shapes, supports and confidence
// bits.
func rulesDigest(rs []core.Rule) []byte {
	d := newDigest()
	for _, r := range rs {
		d.rule(r)
	}
	return d.sum()
}

// summaryDigest hashes a conformance summary in report order. With seqs,
// every violation is hashed exactly, trace ordinal included. Without, each
// report's violations are hashed as a sorted multiset of temporal points:
// two producers seal concurrently into every shard, so a trace's ordinal
// differs from one repetition to the next while the report's content does
// not.
func summaryDigest(s verify.Summary, seqs bool) []byte {
	d := newDigest()
	var points []int
	for _, r := range s.Reports {
		d.rule(r.Rule)
		d.int(int64(r.SatisfiedTraces))
		d.int(int64(r.ViolatedTraces))
		d.int(int64(r.TotalTemporalPoints))
		d.int(int64(r.SatisfiedTemporalPoints))
		d.int(int64(len(r.Violations)))
		if seqs {
			for _, v := range r.Violations {
				d.int(int64(v.Seq))
				d.int(int64(v.TemporalPoint))
			}
			continue
		}
		points = points[:0]
		for _, v := range r.Violations {
			points = append(points, v.TemporalPoint)
		}
		slices.Sort(points)
		for _, p := range points {
			d.int(int64(p))
		}
	}
	return d.sum()
}

// outputDigest is a repetition's output identity: the mined rules and the
// order-independent conformance summary.
func outputDigest(rs []core.Rule, s verify.Summary) []byte {
	d := newDigest()
	d.h.Write(rulesDigest(rs))
	d.h.Write(summaryDigest(s, false))
	return d.sum()
}

// checkOracle is the correctness and durability oracle, run on the warm-up
// repetition's closed store, outside every timed region. Recover must return
// exactly the generated traces as a multiset (every acknowledged trace is
// readable after restart); the in-memory miner and checker over the recovered
// database must reproduce the out-of-core outputs byte for byte; and on an
// online workload the last online summary must equal a batch check of the
// snapshot it came from.
func checkOracle(w workload, in *inputs, dir string, r *repOutput) error {
	db, err := core.Recover(dir)
	if err != nil {
		return fmt.Errorf("oracle: recover: %w", err)
	}
	if !sameMultiset(db.Sequences, in.traces) {
		return fmt.Errorf("oracle: recovered %d traces are not the %d generated ones", db.NumSequences(), len(in.traces))
	}
	mined, err := core.MineRules(db, w.mineOpts)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if !bytes.Equal(rulesDigest(mined.Rules), rulesDigest(r.rules)) {
		return fmt.Errorf("oracle: MineStoreRules (%d rules) differs from MineRules over the recovered traces (%d rules)", len(r.rules), len(mined.Rules))
	}
	checked, err := core.CheckRules(db, in.spec)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if !bytes.Equal(summaryDigest(checked, true), summaryDigest(r.check, true)) {
		return fmt.Errorf("oracle: CheckStore (%d violations) differs from CheckRules over the recovered traces (%d violations)", r.check.TotalViolations(), checked.TotalViolations())
	}
	if w.online {
		last := r.prods[0]
		if last.lastView == nil {
			return fmt.Errorf("oracle: online workload took no snapshot")
		}
		batch, err := core.CheckRules(last.lastView, in.spec)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if !bytes.Equal(summaryDigest(batch, true), summaryDigest(last.lastOnline, true)) {
			return fmt.Errorf("oracle: online summary (%d violations) differs from CheckRules over its snapshot (%d violations)", last.lastOnline.TotalViolations(), batch.TotalViolations())
		}
	}
	return nil
}

func sameMultiset(a, b []seqdb.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	sorted := func(s []seqdb.Sequence) []seqdb.Sequence {
		c := slices.Clone(s)
		slices.SortFunc(c, func(x, y seqdb.Sequence) int { return slices.Compare(x, y) })
		return c
	}
	a, b = sorted(a), sorted(b)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
