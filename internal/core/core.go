// Package core is the query facade of the specmine library: trace loading,
// iterative pattern mining (Section 4 of the paper), recurrent rule mining
// (Section 5), LTL translation (Section 3.3), conformance checking, ranking,
// and the same mining and checking over a durable store out of core
// (MineStore, MineStoreRules, CheckStore, Recover), with its debug endpoint.
// Ingest and storage have one entry point each in their own layers: open a
// store with store.Open and a streaming ingester with stream.Open, and
// compile a rule set for repeated or online checking with verify.NewEngine.
package core

import (
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

// CheckRules verifies mined rules against (typically fresh) traces and
// returns a conformance summary with per-rule violation details. The rule
// set is compiled once (verify.NewEngine) and checked in one batched pass
// per trace; serving paths that check many batches against one rule set
// compile the engine themselves and call its Check.
func CheckRules(db *Database, ruleSet []Rule) (verify.Summary, error) {
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		return verify.Summary{}, err
	}
	return verify.NewSummary(engine.Check(db)), nil
}

// TraceStore is a durable log-structured trace store: per-shard write-ahead
// logs, sealed block-compressed segment files, and crash recovery. Open one
// with store.Open and hand it to stream.Open (stream.Config.Store) for
// durable ingestion, open it out of core for MineStore, MineStoreRules and
// CheckStore, or use Recover for one-shot cold-start mining over a store
// left behind by an earlier process.
type TraceStore = store.Store

// Recover is the cold-start path: it opens the store at dir, merges every
// recovered sealed trace into one Database (shard-major, exactly the view a
// pre-crash Snapshot produced), closes the store again and returns the
// database — ready for MinePatterns/MineRules/CheckRules over historical
// traffic. The database's dictionary carries the store's stable event ids,
// so rules mined here remain valid against the store's future contents;
// hand it to stream.Config.Dict beside their engine to resume checking
// them online.
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
