package synth

import (
	"math"
	"testing"

	"specmine/internal/seqdb"
)

func TestConfigValidate(t *testing.T) {
	valid := Config{NumSequences: 10, AvgSequenceLength: 5, NumEvents: 20, AvgPatternLength: 3}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		{NumSequences: 10, AvgSequenceLength: 0, NumEvents: 20, AvgPatternLength: 3},
		{NumSequences: 10, AvgSequenceLength: 5, NumEvents: 0, AvgPatternLength: 3},
		{NumSequences: 10, AvgSequenceLength: 5, NumEvents: 20, AvgPatternLength: 0},
		{NumSequences: 10, AvgSequenceLength: 5, NumEvents: 20, AvgPatternLength: 3, CorruptionLevel: 1.5},
		{NumSequences: 10, AvgSequenceLength: 5, NumEvents: 20, AvgPatternLength: 3, NoiseRate: -0.1},
		{NumSequences: 10, AvgSequenceLength: 5, NumEvents: 20, AvgPatternLength: 3, NumSeedPatterns: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Generate(Config{}); err == nil {
		t.Errorf("Generate accepted invalid config")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("D5C20N10S20")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumSequences != 5000 || cfg.AvgSequenceLength != 20 || cfg.NumEvents != 10000 || cfg.AvgPatternLength != 20 {
		t.Errorf("ParseSpec wrong: %+v", cfg)
	}
	if cfg.Name() != "D5C20N10S20" {
		t.Errorf("Name round trip: %s", cfg.Name())
	}
	small, err := ParseSpec("D0.2C10N0.05S8")
	if err != nil {
		t.Fatal(err)
	}
	if small.NumSequences != 200 || small.NumEvents != 50 {
		t.Errorf("fractional spec wrong: %+v", small)
	}
	if _, err := ParseSpec("garbage"); err == nil {
		t.Errorf("garbage spec accepted")
	}
	if _, err := ParseSpec("D0C10N1S5"); err == nil {
		t.Errorf("zero-sequence spec accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Config{NumSequences: 300, AvgSequenceLength: 15, NumEvents: 100, AvgPatternLength: 6, Seed: 1}
	db, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != 300 {
		t.Fatalf("NumSequences=%d want 300", db.NumSequences())
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("generated database invalid: %v", err)
	}
	if mean := float64(db.NumEvents()) / float64(db.NumSequences()); math.Abs(mean-15) > 3 {
		t.Errorf("mean length %.1f too far from configured 15", mean)
	}
	if distinct := len(db.FlatIndex().FrequentEventsBySeqSupport(1)); distinct < 20 || distinct > 100 {
		t.Errorf("distinct events %d outside plausible range", distinct)
	}
	for _, s := range db.Sequences {
		if len(s) < 1 {
			t.Fatalf("empty sequence generated")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{NumSequences: 50, AvgSequenceLength: 10, NumEvents: 30, AvgPatternLength: 4, Seed: 42}
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if a.NumSequences() != b.NumSequences() || a.NumEvents() != b.NumEvents() {
		t.Fatalf("same seed produced different shapes")
	}
	for i := range a.Sequences {
		if len(a.Sequences[i]) != len(b.Sequences[i]) {
			t.Fatalf("sequence %d lengths differ", i)
		}
		for j := range a.Sequences[i] {
			if a.Sequences[i][j] != b.Sequences[i][j] {
				t.Fatalf("sequence %d differs at position %d", i, j)
			}
		}
	}
	c := MustGenerate(Config{NumSequences: 50, AvgSequenceLength: 10, NumEvents: 30, AvgPatternLength: 4, Seed: 43})
	same := true
	for i := range a.Sequences {
		if len(a.Sequences[i]) != len(c.Sequences[i]) {
			same = false
			break
		}
		for j := range a.Sequences[i] {
			if a.Sequences[i][j] != c.Sequences[i][j] {
				same = false
				break
			}
		}
		if !same {
			break
		}
	}
	if same {
		t.Errorf("different seeds produced identical databases")
	}
}

func TestGenerateEmbedsRecurringPatterns(t *testing.T) {
	// The generator must actually embed recurring structure: some event pair
	// should appear as a subsequence in a substantial fraction of sequences.
	cfg := Config{NumSequences: 200, AvgSequenceLength: 12, NumEvents: 200, AvgPatternLength: 6, Seed: 7, NumSeedPatterns: 20}
	db := MustGenerate(cfg)
	idx := db.FlatIndex()
	if idx.NumPositions() == 0 {
		t.Fatal("no events generated")
	}
	hottest := 0
	for e := range idx.NumEvents() {
		hottest = max(hottest, idx.EventInstanceCount(seqdb.EventID(e)))
	}
	if hottest < db.NumSequences()/4 {
		t.Errorf("hottest event occurs only %d times over %d sequences: seed patterns not recurring enough",
			hottest, db.NumSequences())
	}
}

func TestMustGeneratePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustGenerate did not panic on invalid config")
		}
	}()
	MustGenerate(Config{})
}
