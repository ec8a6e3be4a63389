package stream_test

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"symfail/internal/analysis/stream"
	"symfail/internal/core"
	"symfail/internal/sim"
)

// TestLiveStudyMatchesBatchPrefix is the live query tier's correctness
// property: a LiveStudy fed an arbitrary prefix of the record stream must
// answer exactly like a fresh batch accumulator set fed the same prefix.
// Snapshots are compared as marshalled bytes, the repo-wide equivalence
// criterion.
func TestLiveStudyMatchesBatchPrefix(t *testing.T) {
	type op struct {
		id string
		r  core.Record
	}
	f := func(seed uint64) bool {
		ds := randomDevices(seed)
		ids := sortedIDs(ds)
		var ops []op
		for i := 0; ; i++ {
			fed := false
			for _, id := range ids {
				if i < len(ds[id]) {
					ops = append(ops, op{id, ds[id][i]})
					fed = true
				}
			}
			if !fed {
				break
			}
		}
		r := sim.NewRand(seed ^ 0x11fe)
		cut := r.Intn(len(ops) + 1)
		cfg := stream.Config{}

		live := stream.NewLiveStudy(cfg)
		for _, o := range ops[:cut] {
			live.Observe(o.id, o.r)
		}
		if live.Records() != cut {
			t.Errorf("seed %d: live saw %d records, fed %d", seed, live.Records(), cut)
			return false
		}

		tables := stream.NewTables(cfg)
		window := stream.NewWindowAcc(cfg)
		decay := stream.NewDecayAcc(cfg)
		seen := make(map[string]bool)
		for _, o := range ops[:cut] {
			if !seen[o.id] {
				seen[o.id] = true
				tables.AddDevice(o.id)
			}
			tables.Observe(o.id, o.r)
			window.Observe(o.id, o.r)
			decay.Observe(o.id, o.r)
		}

		ok := true
		check := func(name string, got, want any) {
			g, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			w, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if string(g) != string(w) {
				t.Errorf("seed %d cut %d: live %s differs from batch prefix:\n got %s\nwant %s",
					seed, cut, name, g, w)
				ok = false
			}
		}
		check("tables", live.Tables(), tables.Snapshot())
		check("window", live.Window(0), window.Snapshot())
		check("window30", live.Window(30), window.Stats(30))
		check("decay", live.Decay(), decay.Snapshot())
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestLiveStudyQueries exercises the query surface itself: every supported
// name answers single-line JSON consistent with the snapshots, unknown names
// and bad arguments error.
func TestLiveStudyQueries(t *testing.T) {
	ds := randomDevices(42)
	live := stream.NewLiveStudy(stream.Config{})
	feedAll(ds, nil, live.Observe)

	for _, q := range []struct {
		name string
		args []string
	}{
		{"status", nil},
		{"mtbf", nil},
		{"panics", nil},
		{"panics", []string{"2"}},
		{"freezerate", nil},
		{"freezerate", []string{"30"}},
	} {
		out, err := live.Query(q.name, q.args)
		if err != nil {
			t.Fatalf("query %s %v: %v", q.name, q.args, err)
		}
		if strings.Contains(out, "\n") || !json.Valid([]byte(out)) {
			t.Fatalf("query %s %v: answer not single-line JSON: %q", q.name, q.args, out)
		}
	}

	var st stream.LiveStatus
	out, err := live.Query("status", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatal(err)
	}
	if st.Records != live.Records() || st.Devices != len(ds) || st.Duplicates != 0 {
		t.Errorf("status answer %+v inconsistent with study (%d records, %d devices)",
			st, live.Records(), len(ds))
	}

	var pan stream.LivePanics
	out, err = live.Query("panics", []string{"2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out), &pan); err != nil {
		t.Fatal(err)
	}
	if want := live.Decay().PanicTable; len(want) > 2 && len(pan.Top) != 2 {
		t.Errorf("panics 2 returned %d rows, want 2 (of %d)", len(pan.Top), len(want))
	}

	if _, err := live.Query("bogus", nil); err == nil {
		t.Error("unknown query name did not error")
	}
	if _, err := live.Query("panics", []string{"x"}); err == nil {
		t.Error("non-integer argument did not error")
	}
	if _, err := live.Query("mtbf", []string{"1"}); err == nil {
		t.Error("mtbf with an argument did not error")
	}
}
