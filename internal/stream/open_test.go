package stream

import (
	"slices"
	"testing"

	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/verify"
)

// TestOpenReconcilesCallerDict: in durable mode Open adopts a caller's
// dictionary into the store's when every id both assign names the same
// event, and refuses it otherwise. A refused Open — by the reconciliation,
// by AttachIngester, or by the Engine guard — writes nothing into the store's
// durable dictionary: a reopened store holds exactly the names it held before.
func TestOpenReconcilesCallerDict(t *testing.T) {
	dictOf := func(names ...string) *seqdb.Dictionary {
		d := seqdb.NewDictionary()
		for _, n := range names {
			d.Intern(n)
		}
		return d
	}
	engine, err := verify.NewEngine([]rules.Rule{{Pre: seqdb.Pattern{0}, Post: seqdb.Pattern{1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		held      []string // the store's dictionary before Open
		caller    []string // Config.Dict; nil leaves it unset
		outOfCore bool     // open the store out of core
		attached  bool     // another ingester already holds the handle
		noStore   bool     // memory-only, with an Engine
		wantErr   bool
		want      []string // the reopened store's dictionary
	}{
		{name: "id names another event", held: []string{"a", "b"}, caller: []string{"a", "c"}, wantErr: true, want: []string{"a", "b"}},
		{name: "name held under another id", held: []string{"b"}, caller: []string{"a", "b"}, wantErr: true, want: []string{"b"}},
		{name: "out-of-core handle refuses the attach", held: []string{"a"}, caller: []string{"a", "foreign1", "foreign2"}, outOfCore: true, wantErr: true, want: []string{"a"}},
		{name: "second ingester refused", held: []string{"a"}, caller: []string{"a", "foreign1"}, attached: true, wantErr: true, want: []string{"a"}},
		{name: "engine without a dictionary", noStore: true, wantErr: true},
		{name: "caller extends the store", held: []string{"a", "b"}, caller: []string{"a", "b", "c", "d"}, want: []string{"a", "b", "c", "d"}},
		{name: "store extends the caller", held: []string{"a", "b", "c"}, caller: []string{"a", "b"}, want: []string{"a", "b", "c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var caller *seqdb.Dictionary
			if tc.caller != nil {
				caller = dictOf(tc.caller...)
			}
			if tc.noStore {
				if ing, err := Open(Config{Dict: caller, Engine: engine}); err == nil {
					ing.Close()
					t.Fatal("Open accepted an Engine with neither Dict nor Store")
				}
				return
			}
			dir := t.TempDir()
			st := openTestStore(t, dir, 1, nil)
			for _, n := range tc.held {
				st.Dict().Intern(n)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = openTestStore(t, dir, 0, func(o *store.Options) { o.OutOfCore = tc.outOfCore })
			var first *Ingester
			if tc.attached {
				first = mustOpen(t, Config{Store: st})
			}
			ing, err := Open(Config{Dict: caller, Store: st})
			switch {
			case tc.wantErr && err == nil:
				t.Fatal("Open succeeded, want an error")
			case !tc.wantErr && err != nil:
				t.Fatalf("Open: %v", err)
			case err == nil:
				for i, n := range tc.caller {
					if id := ing.Dict().Lookup(n); id != seqdb.EventID(i) {
						t.Fatalf("%q has id %d in the ingester's dictionary, want %d", n, id, i)
					}
				}
				if err := ing.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if first != nil {
				if err := first.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = openTestStore(t, dir, 0, nil)
			defer st.Close()
			if got := st.Dict().Export(); !slices.Equal(got, tc.want) {
				t.Fatalf("reopened store's dictionary is %q, want %q", got, tc.want)
			}
		})
	}
}
