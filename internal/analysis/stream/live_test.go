package stream_test

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"symfail/internal/analysis/stream"
	"symfail/internal/core"
	"symfail/internal/sim"
)

// TestLiveStudyMatchesBatchPrefix is the live query tier's correctness
// property, checked after every record fed. The mtbf and status answers
// must equal those of a sealed Tables fed the prefix's in-order records:
// per device, each record no earlier than the last one accepted; the rest
// are the Reordered count. The windowed and decaying views must equal a
// second LiveStudy's fed the same prefix device by device — another
// interleaving, with each device's records in arrival order. A third of the
// seeds shuffle the whole feed, so the order guard trips. Answers are
// compared as marshalled bytes, the repo-wide equivalence criterion.
func TestLiveStudyMatchesBatchPrefix(t *testing.T) {
	cfg := stream.Config{}
	f := func(seed uint64) bool {
		ds := randomDevices(seed)
		ops := interleave(ds)
		if seed%3 == 0 {
			r := sim.NewRand(seed ^ 0x11fe)
			r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		}
		live := stream.NewLiveStudy(cfg)
		last := make(map[string]int64)
		var inOrder []liveOp
		for i, o := range ops {
			live.Observe(o.id, o.r)
			if t, seen := last[o.id]; !seen || o.r.Time >= t {
				last[o.id] = o.r.Time
				inOrder = append(inOrder, o)
			}

			tables := stream.NewTables(cfg)
			byDevice := stream.NewLiveStudy(cfg)
			prefix := make(map[string][]core.Record)
			for _, o := range inOrder {
				tables.Observe(o.id, o.r)
			}
			for _, o := range ops[:i+1] {
				prefix[o.id] = append(prefix[o.id], o.r)
			}
			for _, id := range sortedIDs(ds) {
				for _, rec := range prefix[id] {
					byDevice.Observe(id, rec)
				}
			}
			sealed, dec := tables.Tables(), live.Decay()

			ok := true
			check := func(name string, got, want any) {
				if g, w := marshal(t, got), marshal(t, want); g != w {
					t.Errorf("seed %d record %d/%d: live %s differs:\n got %s\nwant %s", seed, i+1, len(ops), name, g, w)
					ok = false
				}
			}
			check("mtbf", query(t, live, "mtbf"), stream.LiveMTBF{
				Devices:        len(sealed.Devices),
				MTBF:           sealed.MTBF,
				DecayMTBFHours: dec.MTBFHours,
				AsOfDay:        dec.AsOfDay,
			})
			top := dec.PanicTable
			if len(top) > 5 {
				top = top[:5]
			}
			check("panics", query(t, live, "panics"), stream.LivePanics{AsOfDay: dec.AsOfDay, Total: dec.Panics, Top: top})
			check("status", query(t, live, "status"), stream.LiveStatus{
				Devices:   len(sealed.Devices),
				Records:   i + 1,
				Reordered: i + 1 - len(inOrder),
			})
			check("window", live.Window(0), byDevice.Window(0))
			check("window30", live.Window(30), byDevice.Window(30))
			check("decay", dec, byDevice.Decay())
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Error(err)
	}
}

// query returns a live query's answer, parsed as raw JSON so check
// re-marshals it to the same bytes.
func query(t *testing.T, s *stream.LiveStudy, name string) json.RawMessage {
	t.Helper()
	out, err := s.Query(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return json.RawMessage(out)
}

// TestLiveStudyMTBFBeforeEpoch covers what the generated feeds never
// reach: records timed before the epoch. A device cursor's last-seen time
// starts at 0, so a session opened before the epoch and still open runs to
// 0, not to the device's last record; the mtbf answer must do the same.
func TestLiveStudyMTBFBeforeEpoch(t *testing.T) {
	recs := []core.Record{
		{Kind: core.KindBoot, Time: -int64(3 * time.Hour), Boot: 1, Detected: core.DetectedFirstBoot},
		{Kind: core.KindPanic, Time: -int64(time.Hour), Category: "USER", PType: 11},
	}
	live, tables := stream.NewLiveStudy(stream.Config{}), stream.NewTables(stream.Config{})
	for _, r := range recs {
		live.Observe("a", r)
		tables.Observe("a", r)
	}
	sealed, dec := tables.Tables(), live.Decay()
	if got, want := marshal(t, query(t, live, "mtbf")), marshal(t, stream.LiveMTBF{
		Devices:        len(sealed.Devices),
		MTBF:           sealed.MTBF,
		DecayMTBFHours: dec.MTBFHours,
		AsOfDay:        dec.AsOfDay,
	}); got != want {
		t.Errorf("mtbf answer before the epoch:\n got %s\nwant %s", got, want)
	}
}

// TestLiveStudyUptimeBeforeEpoch pins that a session booted before the
// epoch adds only its post-epoch part to the window: from a boot 1 h or
// 25 h early, a session that ends 2 h after the epoch adds 2 h either way.
func TestLiveStudyUptimeBeforeEpoch(t *testing.T) {
	for _, early := range []time.Duration{time.Hour, 25 * time.Hour} {
		live := stream.NewLiveStudy(stream.Config{})
		live.Observe("a", core.Record{Kind: core.KindBoot, Time: -int64(early), Boot: 1, Detected: core.DetectedFirstBoot})
		live.Observe("a", core.Record{Kind: core.KindBoot, Time: int64(3 * time.Hour), Boot: 2,
			PrevTime: int64(2 * time.Hour), Detected: core.DetectedLoggerOff})
		if got := live.Window(0).UptimeHours; got != 2 {
			t.Errorf("session booted %v before the epoch: window uptime %v h, want 2", early, got)
		}
	}
}

// TestLiveStudyCountsIgnoreOrder pins what of the day fold is free of
// delivery order: shuffling one device's records leaves every count and
// both panic rankings unchanged. Uptime is not compared: each boot closes
// the session of the boot last delivered for its device, so it depends on
// the order within a device.
func TestLiveStudyCountsIgnoreOrder(t *testing.T) {
	type counts struct {
		Records, Panics, Freezes, SelfShutdowns, UserShutdowns int
		PanicTable                                             []stream.PanicRow
		DecayPanics, DecayFreezes, DecaySelfs, DecayUsers      float64
		DecayTable                                             []stream.DecayRow
	}
	countsOf := func(s *stream.LiveStudy) string {
		w, d := s.Window(0), s.Decay()
		return marshal(t, counts{
			w.Records, w.Panics, w.Freezes, w.SelfShutdowns, w.UserShutdowns, w.PanicTable,
			d.Panics, d.Freezes, d.SelfShutdowns, d.UserShutdowns, d.PanicTable,
		})
	}
	f := func(seed uint64) bool {
		ds := randomDevices(seed)
		ids := sortedIDs(ds)
		r := sim.NewRand(seed ^ 0x5fff)
		shuffled := ids[r.Intn(len(ids))]
		recs := append([]core.Record(nil), ds[shuffled]...)
		r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

		inOrder, reordered := stream.NewLiveStudy(stream.Config{}), stream.NewLiveStudy(stream.Config{})
		for _, o := range interleave(ds) {
			inOrder.Observe(o.id, o.r)
			if o.id != shuffled {
				reordered.Observe(o.id, o.r)
			}
		}
		for _, rec := range recs {
			reordered.Observe(shuffled, rec)
		}
		if got, want := countsOf(reordered), countsOf(inOrder); got != want {
			t.Errorf("seed %d: shuffling device %s moved the counts:\n got %s\nwant %s", seed, shuffled, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConfig(20)); err != nil {
		t.Error(err)
	}
}

type liveOp struct {
	id string
	r  core.Record
}

// interleave deals the devices' records round-robin in sorted-device
// order, each device's records in order.
func interleave(ds map[string][]core.Record) []liveOp {
	ids := sortedIDs(ds)
	var ops []liveOp
	for i := 0; ; i++ {
		fed := false
		for _, id := range ids {
			if i < len(ds[id]) {
				ops = append(ops, liveOp{id, ds[id][i]})
				fed = true
			}
		}
		if !fed {
			return ops
		}
	}
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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

// TestLiveQueryAllocationsFlat pins that a live answer costs the same
// allocations however many days the fold spans: the mtbf, panics and
// freezerate answers allocate as much on a 425-day fold (the paper's
// deployment length) as on a 60-day one with the same panic keys.
func TestLiveQueryAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	cats := []string{"KERN-EXEC", "USER", "E32USER-CBase"}
	foldOf := func(days int) *stream.LiveStudy {
		live := stream.NewLiveStudy(stream.Config{})
		day := int64(24 * time.Hour)
		live.Observe("a", core.Record{Kind: core.KindBoot, Time: 0, Boot: 1, Detected: core.DetectedFirstBoot})
		for d := 0; d < days; d++ {
			at := int64(d) * day
			live.Observe("a", core.Record{Kind: core.KindPanic, Time: at + day/4, Category: cats[d%len(cats)], PType: d % 4})
			live.Observe("a", core.Record{
				Kind: core.KindBoot, Time: at + day/2, Boot: d + 2, Detected: core.DetectedFreeze,
				PrevTime: at + day/3, OffSeconds: 30,
			})
		}
		return live
	}
	short, long := foldOf(60), foldOf(425)
	for _, q := range []string{"mtbf", "panics", "freezerate"} {
		allocs := func(live *stream.LiveStudy) float64 {
			return testing.AllocsPerRun(50, func() {
				if _, err := live.Query(q, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		if s, l := allocs(short), allocs(long); s != l {
			t.Errorf("%s answer: %.0f allocs on a 60-day fold, %.0f on a 425-day fold", q, s, l)
		}
	}
}
