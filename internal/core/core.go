// Package core is the facade of the specmine library: a small, stable entry
// point that ties together trace loading, iterative pattern mining
// (Section 4 of the paper), recurrent rule mining (Section 5), LTL
// translation (Section 3.3) and conformance checking. The examples and
// command-line tools are written against this package; the specialised
// internal packages remain available for callers that need finer control.
package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"specmine/internal/episode"
	"specmine/internal/iterpattern"
	"specmine/internal/ltl"
	"specmine/internal/mine"
	"specmine/internal/obs"
	"specmine/internal/rank"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/seqpattern"
	"specmine/internal/store"
	"specmine/internal/stream"
	"specmine/internal/verify"
)

// Re-exported basic types so that facade users rarely need to import the
// lower-level packages directly.
type (
	// Database is a sequence database of program traces.
	Database = seqdb.Database
	// Dictionary interns event names.
	Dictionary = seqdb.Dictionary
	// Pattern is a series of events.
	Pattern = seqdb.Pattern
	// Rule is a mined recurrent rule.
	Rule = rules.Rule
	// MinedPattern is a mined iterative pattern.
	MinedPattern = iterpattern.MinedPattern
	// SeqPattern is a mined sequential pattern (the Section 2 comparator).
	SeqPattern = seqpattern.MinedPattern
	// Episode is a mined serial episode (the Sections 1–2 comparator).
	Episode = episode.Episode
)

// LoadTraces reads the textual trace format (one trace per line, events
// separated by whitespace) from r.
func LoadTraces(r io.Reader) (*Database, error) { return seqdb.ReadTraces(r) }

// LoadTraceFile reads the textual trace format from a file.
func LoadTraceFile(path string) (*Database, error) { return seqdb.ReadTraceFile(path) }

// SaveTraceFile writes db to path in the textual trace format.
func SaveTraceFile(path string, db *Database) error { return seqdb.WriteTraceFile(path, db) }

// NewDatabase returns an empty trace database.
func NewDatabase() *Database { return seqdb.NewDatabase() }

// ParsePattern interns the space-separated event names in spec.
func ParsePattern(dict *Dictionary, spec string) Pattern { return seqdb.ParsePattern(dict, spec) }

// The miners' own options and results, so that facade callers set the
// paper's parameters under one name each.
type (
	// PatternOptions configures iterative pattern mining; its zero Full mines
	// the closed set.
	PatternOptions = iterpattern.Options
	// PatternResult is an iterative pattern mining run.
	PatternResult = iterpattern.Result
	// RuleOptions configures recurrent rule mining; its zero Full mines the
	// non-redundant set. The facade defaults MinInstanceSupport to 1 and
	// MinConfidence to 0.9.
	RuleOptions = rules.Options
	// RuleResult is a recurrent rule mining run.
	RuleResult = rules.Result
	// SeqPatternOptions configures sequential pattern mining (the PrefixSpan
	// comparator of Section 2).
	SeqPatternOptions = seqpattern.Options
	// SeqPatternResult is a sequential pattern mining run.
	SeqPatternResult = seqpattern.Result
	// EpisodeOptions configures window-based episode mining (the WINEPI
	// comparator of Sections 1–2).
	EpisodeOptions = episode.Options
	// EpisodeResult is an episode mining run.
	EpisodeResult = episode.Result
)

// MinePatterns mines iterative patterns from db.
func MinePatterns(db *Database, opts PatternOptions) (*PatternResult, error) {
	return minePatterns(mine.Resident(db), opts, nil)
}

// minePatterns is the one body behind MinePatterns and MineStore: the miner
// over src and — with a registry — the mine.* series.
func minePatterns(src mine.Source, opts PatternOptions, r *obs.Registry) (*PatternResult, error) {
	res, err := iterpattern.MineSource(src, opts)
	if err != nil {
		return nil, fmt.Errorf("mining iterative patterns: %w", err)
	}
	if r != nil {
		r.Counter("mine.seeds").Add(int64(len(src.FrequentByInstanceCount(res.MinSupport))))
		publishPatternStats(r, res.Stats)
	}
	return res, nil
}

// MineRules mines recurrent rules from db.
func MineRules(db *Database, opts RuleOptions) (*RuleResult, error) {
	return mineRules(mine.Resident(db), opts, nil)
}

// mineRules is the one body behind MineRules and MineStoreRules: option
// defaults, the miner over src, and — with a registry — the mine.* series.
func mineRules(src mine.Source, opts RuleOptions, r *obs.Registry) (*RuleResult, error) {
	if opts.MinInstanceSupport == 0 {
		opts.MinInstanceSupport = 1
	}
	if opts.MinConfidence == 0 {
		opts.MinConfidence = 0.9
	}
	res, err := rules.MineSource(src, opts)
	if err != nil {
		return nil, fmt.Errorf("mining recurrent rules: %w", err)
	}
	if r != nil {
		publishRuleStats(r, res.Stats)
	}
	return res, nil
}

// MineSequential mines classic sequential patterns from db: support counts
// the sequences containing a pattern as a subsequence. It runs on the same
// flat index and count-first search framework as the headline miners, so
// comparator studies over streamed snapshots run at full speed.
func MineSequential(db *Database, opts SeqPatternOptions) (*SeqPatternResult, error) {
	res, err := seqpattern.Mine(db, opts)
	if err != nil {
		return nil, fmt.Errorf("mining sequential patterns: %w", err)
	}
	return res, nil
}

// MineEpisodes mines serial episodes across every trace of db, merging
// window counts per episode (the episode-style view of a trace database the
// ablation studies compare against).
func MineEpisodes(db *Database, opts EpisodeOptions) (*EpisodeResult, error) {
	res, err := episode.MineDatabase(db, opts)
	if err != nil {
		return nil, fmt.Errorf("mining episodes: %w", err)
	}
	return res, nil
}

// RuleToLTL translates a rule into its LTL formula (Table 2) rendered with
// the database's event names.
func RuleToLTL(dict *Dictionary, rule Rule) (string, error) {
	f, err := ltl.FromRule(rule.Pre, rule.Post)
	if err != nil {
		return "", err
	}
	return f.String(dict), nil
}

// DescribeRule returns the English reading of a rule's LTL formula (Table 1
// style).
func DescribeRule(dict *Dictionary, rule Rule) (string, error) {
	if err := ltl.ValidateRule(rule.Pre, rule.Post); err != nil {
		return "", err
	}
	return ltl.DescribeRule(rule.Pre, rule.Post, dict), nil
}

// Verifier is a rule set compiled for batched conformance checking: the
// premises share one prefix trie and every trace is scanned once for the
// whole set. Compile once with CompileRules, then serve any number of trace
// batches through Check.
type Verifier = verify.Engine

// CompileRules compiles a mined (or hand-written) rule set into a reusable
// batched Verifier. Use it on serving paths that check a stream of trace
// batches against a fixed specification; one-shot callers can use CheckRules
// directly.
func CompileRules(ruleSet []Rule) (*Verifier, error) {
	return verify.NewEngine(ruleSet)
}

// CheckRules verifies mined rules against (typically fresh) traces and
// returns a conformance summary with per-rule violation details. The rule
// set is compiled once, as CompileRules does, and checked in one batched
// pass per trace (Verifier.Check).
func CheckRules(db *Database, ruleSet []Rule) (verify.Summary, error) {
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		return verify.Summary{}, err
	}
	return verify.NewSummary(engine.Check(db)), nil
}

// TraceStore is a durable log-structured trace store: per-shard write-ahead
// logs, sealed block-compressed segment files, and crash recovery. Open one
// with OpenStore and attach it to a Streamer (StreamOptions.Store) for
// durable ingestion, or use Recover for one-shot
// cold-start mining over a store left behind by an earlier process.
type TraceStore = store.Store

// Health is a snapshot of a store's failure-model state: its degradation
// ladder position, the operative error, and the retry/fault counters. See
// the store package's failure-model documentation for the full contract.
type Health = store.Health

// HealthState is a rung of the degradation ladder.
type HealthState = store.HealthState

// Degradation ladder states, re-exported for facade callers.
const (
	// StoreHealthy: every durability promise holds.
	StoreHealthy = store.Healthy
	// StoreDegradedReadOnly: a permanent I/O fault stopped durable ingest;
	// snapshots, mining, and online checking continue from memory.
	StoreDegradedReadOnly = store.DegradedReadOnly
	// StoreFailed: an internal invariant was violated; reads refuse too.
	StoreFailed = store.Failed
)

// Typed failure-mode errors, matchable with errors.Is on anything the
// store or a durable Streamer returns after degrading.
var (
	// ErrStoreDegraded wraps every error returned by writes against a
	// degraded read-only store.
	ErrStoreDegraded = store.ErrDegraded
	// ErrStoreFailed wraps every error returned by a failed store.
	ErrStoreFailed = store.ErrFailed
)

// StoreOptions configures OpenStore.
type StoreOptions struct {
	// Shards fixes the store's shard count at creation (default 4). Reopening
	// an existing store with a different non-zero value is an error; 0 always
	// means "whatever the store has".
	Shards int
	// Sync extends durability from process crashes to machine crashes by
	// fsyncing every flush barrier — at a heavy throughput cost.
	Sync bool
	// OutOfCore opens the store without materialising sealed trace bodies:
	// segments are checksum-validated but stay on disk until MineStore /
	// MineStoreRules / CheckStore pin them, so opening a store much larger
	// than RAM is metadata-cheap. Recovered() then reports open traces only,
	// and attaching a streamer is refused.
	OutOfCore bool
	// Obs, when non-nil, attaches a metrics registry: the store publishes
	// commit counters, WAL flush/fsync latency histograms, segment-publish
	// and compaction timings, and failure-model transitions to it. Nil keeps
	// instrumentation at its near-zero disabled cost.
	Obs *obs.Registry
}

// OpenStore opens (creating if needed) the durable trace store at dir and
// recovers its state: the event dictionary, every sealed trace, and the
// traces that were still open mid-ingestion when the previous process died.
func OpenStore(dir string, opts StoreOptions) (*TraceStore, error) {
	return store.Open(store.Options{Dir: dir, Shards: opts.Shards, Sync: opts.Sync, OutOfCore: opts.OutOfCore, Obs: opts.Obs})
}

// Recover is the cold-start path: it opens the store at dir, merges every
// recovered sealed trace into one Database (shard-major, exactly the view a
// pre-crash Snapshot produced), closes the store again and returns the
// database — ready for MinePatterns/MineRules/CheckRules over historical
// traffic. The database's dictionary carries the store's stable event ids,
// so rules mined here remain valid against the store's future contents.
func Recover(dir string) (*Database, error) {
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
		return nil, fmt.Errorf("core: no trace store at %s: %w", dir, err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	db := st.Recovered().Database(st.Dict())
	if err := st.Close(); err != nil {
		return nil, err
	}
	return db, nil
}

// StreamOptions configures a streaming ingestion session through the facade.
type StreamOptions struct {
	// Shards is the number of ingestion shards (default 4). With Store set,
	// the store's fixed shard count wins and a different non-zero value here
	// is an error.
	Shards int
	// Buffer is the per-shard channel capacity (default 256); full buffers
	// apply backpressure to Ingest callers.
	Buffer int
	// FlushBatch is how many sealed traces a shard applies between barriers
	// (default 32). In durable mode each barrier flushes the WAL and rolls
	// the newly sealed traces into a segment file.
	FlushBatch int
	// Dict shares a dictionary with previously mined artifacts. It is
	// required when Rules is set (unless Store supplies the dictionary): the
	// rules' event ids must come from it.
	Dict *Dictionary
	// Rules, when non-empty, is compiled into an online conformance engine
	// that checks every trace as its events arrive.
	Rules []Rule
	// Store, when non-nil, makes the session durable: operations are
	// write-ahead logged before acknowledgement, sealed traces roll into
	// segment files, and the streamer starts from the store's recovered
	// state — sealed traces, open traces, and conformance outcomes included.
	Store *TraceStore
	// Obs, when non-nil, attaches a metrics registry: the session publishes
	// per-shard ingest latency histograms, queue depths, backpressure
	// waits and acked-event counters to it (series stream.*). Share one
	// registry between StreamOptions.Obs and StoreOptions.Obs to scrape the
	// whole pipeline from a single ServeDebug endpoint.
	Obs *obs.Registry
}

// Streamer ingests live traces: events arrive incrementally per trace id,
// terminated traces are sealed into sharded databases, and consistent
// snapshots feed the batch miners, each building its positional index on
// first use. With
// Rules configured, conformance is checked online and CheckOnline returns
// the summary a batch CheckRules over Snapshot() would produce.
type Streamer struct {
	ing      *stream.Ingester
	hasRules bool
}

// NewStreamer starts a streaming ingestion session.
func NewStreamer(opts StreamOptions) (*Streamer, error) {
	cfg := stream.Config{
		Shards:     opts.Shards,
		Buffer:     opts.Buffer,
		FlushBatch: opts.FlushBatch,
		Dict:       opts.Dict,
		Obs:        opts.Obs,
	}
	if len(opts.Rules) > 0 {
		if opts.Dict == nil && opts.Store == nil {
			return nil, errors.New("core: StreamOptions.Rules requires the dictionary the rules were mined against (or a Store supplying it)")
		}
		engine, err := verify.NewEngine(opts.Rules)
		if err != nil {
			return nil, fmt.Errorf("compiling online rule set: %w", err)
		}
		cfg.Engine = engine
	}
	if opts.Store != nil {
		// Everything that can still fail is validated before adoptDict: the
		// store's dictionary log is durable, so a doomed configuration must
		// not write the caller's names into it on its way to the error.
		if opts.Shards != 0 && opts.Shards != opts.Store.NumShards() {
			return nil, fmt.Errorf("core: StreamOptions.Shards is %d but the store was created with %d shards", opts.Shards, opts.Store.NumShards())
		}
		if err := adoptDict(opts.Store, opts.Dict); err != nil {
			return nil, err
		}
		cfg.Dict = nil // the store's dictionary takes over; ids proven equal
		cfg.Store = opts.Store
	}
	ing, err := stream.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &Streamer{ing: ing, hasRules: len(opts.Rules) > 0}, nil
}

// adoptDict reconciles a caller-supplied dictionary (for example the one a
// rule set was mined against, possibly via Recover on this very store) with
// the store's durable dictionary, so that interning the names in id order
// reproduces the caller's ids exactly — on a fresh store it always does, and
// on the store the rules came from it is a no-op. Validation runs before any
// interning: the store's dictionary log is durable, so a failed
// reconciliation must not leave foreign names permanently occupying ids.
func adoptDict(ts *TraceStore, dict *Dictionary) error {
	if dict == nil {
		return nil
	}
	names := dict.Export()
	existing := ts.Dict().Export()
	for i, name := range names {
		if i < len(existing) {
			if existing[i] != name {
				return fmt.Errorf("core: store dictionary assigns id %d to %q where the supplied dictionary has %q — the store holds a different event stream", i, existing[i], name)
			}
		} else if id := ts.Dict().Lookup(name); id != seqdb.NoEvent {
			return fmt.Errorf("core: store dictionary already assigns %q id %d where the supplied dictionary has %d — the store holds a different event stream", name, id, i)
		}
	}
	for _, name := range names[min(len(existing), len(names)):] {
		ts.Dict().Intern(name)
	}
	return nil
}

// Dict returns the streamer's event dictionary.
func (st *Streamer) Dict() *Dictionary { return st.ing.Dict() }

// Ingest appends events to the identified (possibly new) trace.
func (st *Streamer) Ingest(traceID string, events ...string) error {
	return st.ing.Ingest(traceID, events...)
}

// CloseTrace terminates a trace, sealing it into the streamed database.
func (st *Streamer) CloseTrace(traceID string) error {
	return st.ing.CloseTrace(traceID)
}

// Snapshot returns a consistent database of every sealed trace; mine it with
// MinePatterns/MineRules or check it with CheckRules while ingestion
// continues.
func (st *Streamer) Snapshot() (*Database, error) {
	v, err := st.ing.Snapshot()
	if err != nil {
		return nil, err
	}
	return v.DB, nil
}

// CheckOnline returns the conformance summary accumulated by the online
// checkers over every sealed trace — equal to CheckRules over Snapshot(),
// without rescanning anything.
func (st *Streamer) CheckOnline() (verify.Summary, error) {
	if !st.hasRules {
		return verify.Summary{}, errors.New("core: streamer has no rules configured")
	}
	v, err := st.ing.Snapshot()
	if err != nil {
		return verify.Summary{}, err
	}
	return verify.NewSummary(v.Reports), nil
}

// Health reports the backing store's health. A degraded read-only session
// keeps serving Snapshot and CheckOnline from memory while Ingest and
// CloseTrace fail fast with an error wrapping ErrStoreDegraded; a
// memory-only session is always healthy.
func (st *Streamer) Health() Health { return st.ing.Health() }

// Close shuts the streamer down, discarding still-open traces.
func (st *Streamer) Close() error { return st.ing.Close() }

// RankPatterns orders mined patterns by interestingness (the future-work
// ranking of Section 8), most interesting first.
func RankPatterns(db *Database, patterns []MinedPattern, topN int) []rank.ScoredPattern {
	return rank.TopPatterns(db, patterns, rank.Weights{}, topN)
}

// RankRules orders mined rules by interestingness, most interesting first.
func RankRules(db *Database, ruleSet []Rule, topN int) []rank.ScoredRule {
	return rank.TopRules(db, ruleSet, rank.Weights{}, topN)
}

// RankSequential orders mined sequential patterns by interestingness, most
// interesting first.
func RankSequential(db *Database, patterns []SeqPattern, topN int) []rank.ScoredSeqPattern {
	return rank.TopSeqPatterns(db, patterns, rank.Weights{}, topN)
}

// RankEpisodes orders mined episodes by interestingness, most interesting
// first.
func RankEpisodes(db *Database, episodes []Episode, topN int) []rank.ScoredEpisode {
	return rank.TopEpisodes(db, episodes, rank.Weights{}, topN)
}

// EvaluateRule scores an arbitrary (for example hand-written) rule against
// the database, returning its s-support, i-support and confidence.
func EvaluateRule(db *Database, pre, post Pattern) Rule {
	return rules.EvaluateRule(db, pre, post)
}
