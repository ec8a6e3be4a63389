package stream_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"symfail/internal/analysis"
	"symfail/internal/analysis/stream"
	"symfail/internal/core"
	"symfail/internal/sim"
)

// randomDevices builds a random-but-plausible per-device record set obeying
// the stream input contract (per-device non-decreasing Time and PrevTime).
// More devices than analysis's randomDataset so shard splits are meaningful.
func randomDevices(seed uint64) map[string][]core.Record {
	r := sim.NewRand(seed)
	ds := make(map[string][]core.Record)
	devices := 4 + r.Intn(5)
	for d := 0; d < devices; d++ {
		id := string(rune('a' + d))
		recs := []core.Record{{Kind: core.KindBoot, Time: 0, Boot: 1, Detected: core.DetectedFirstBoot}}
		now := sim.Epoch
		boot := 1
		for i := 0; i < 5+r.Intn(40); i++ {
			now = now.Add(time.Duration(r.Exp(float64(6 * time.Hour))))
			if r.Bool(0.4) {
				recs = append(recs, core.Record{
					Kind: core.KindPanic, Time: int64(now),
					Category: []string{"KERN-EXEC", "USER", "E32USER-CBase"}[r.Intn(3)],
					PType:    r.Intn(100),
					Activity: []string{"voice-call", "message", "unspecified"}[r.Intn(3)],
					Apps:     []string{"Messages"}[:r.Intn(2)],
				})
				continue
			}
			boot++
			off := r.Exp(float64(10 * time.Minute))
			detected := core.DetectedShutdown
			prev := core.BeatReboot
			if r.Bool(0.3) {
				detected = core.DetectedFreeze
				prev = core.BeatAlive
			}
			bootAt := now.Add(time.Duration(off))
			recs = append(recs, core.Record{
				Kind: core.KindBoot, Time: int64(bootAt), Boot: boot,
				Detected: detected, PrevBeat: prev, PrevTime: int64(now),
				OffSeconds: time.Duration(off).Seconds(),
			})
			now = bootAt
		}
		ds[id] = recs
	}
	return ds
}

// quickSeed seeds every quick.Check of this package's tests, so a failing
// input replays.
const quickSeed = 2007

// quickConfig draws maxCount inputs from a generator seeded with quickSeed.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(quickSeed))}
}

// sortedIDs returns the dataset's device IDs in sorted (generation) order.
func sortedIDs(ds map[string][]core.Record) []string {
	ids := make([]string, 0, len(ds))
	for d := 0; d < len(ds); d++ {
		ids = append(ids, string(rune('a'+d)))
	}
	return ids
}

// feedAll feeds every device of ds into acc in sorted-device order.
func feedAll(ds map[string][]core.Record, add func(string), observe func(string, core.Record)) {
	for _, id := range sortedIDs(ds) {
		if add != nil {
			add(id)
		}
		for _, r := range ds[id] {
			observe(id, r)
		}
	}
}

// addDevicer is implemented by the accumulators that track zero-record
// devices (Tables, Collect).
type addDevicer interface{ AddDevice(string) }

// feedAcc feeds the given devices into an accumulator, using AddDevice when
// the type supports it.
func feedAcc(acc stream.Accumulator, ds map[string][]core.Record, ids []string) {
	ad, _ := acc.(addDevicer)
	for _, id := range ids {
		if ad != nil {
			ad.AddDevice(id)
		}
		for _, r := range ds[id] {
			acc.Observe(id, r)
		}
	}
}

// snapJSON is the equivalence criterion: snapshots must marshal to
// identical bytes.
func snapJSON(t *testing.T, acc stream.Accumulator) []byte {
	t.Helper()
	blob, err := json.Marshal(acc.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStreamRegisteredAccumulators cross-checks NewRegistered against the
// RegisteredAccumulators table: same keys, and each key names its concrete
// type (the dynamic half of symlint's accmerge check).
func TestStreamRegisteredAccumulators(t *testing.T) {
	accs := stream.NewRegistered(stream.Config{})
	if len(accs) != len(stream.RegisteredAccumulators) {
		t.Errorf("NewRegistered has %d entries, RegisteredAccumulators %d", len(accs), len(stream.RegisteredAccumulators))
	}
	for name := range stream.RegisteredAccumulators {
		acc, ok := accs[name]
		if !ok {
			t.Errorf("registered type %s missing from NewRegistered", name)
			continue
		}
		if got := reflect.TypeOf(acc).Elem().Name(); got != name {
			t.Errorf("NewRegistered[%q] builds a %s", name, got)
		}
	}
	for name := range accs {
		if !stream.RegisteredAccumulators[name] {
			t.Errorf("NewRegistered key %s not in RegisteredAccumulators", name)
		}
	}
}

// TestStreamMergeOrderInsensitive is the merge-law property: for every
// registered accumulator, any device-disjoint sharding merged in any order
// through any merge tree snapshots to the same bytes as one accumulator fed
// everything.
func TestStreamMergeOrderInsensitive(t *testing.T) {
	cfg := stream.Config{}
	f := func(seed uint64) bool {
		ds := randomDevices(seed)
		ids := sortedIDs(ds)
		r := sim.NewRand(seed ^ 0x5eed)
		shards := 2 + r.Intn(3)
		assign := make([][]string, shards)
		for _, id := range ids {
			s := r.Intn(shards)
			assign[s] = append(assign[s], id)
		}
		ok := true
		for name, whole := range stream.NewRegistered(cfg) {
			feedAcc(whole, ds, ids)
			want := snapJSON(t, whole)

			// Left fold in shuffled order.
			order := make([]int, shards)
			for i := range order {
				order[i] = i
			}
			r.Shuffle(shards, func(i, j int) { order[i], order[j] = order[j], order[i] })
			accs := make([]stream.Accumulator, shards)
			for i := range accs {
				accs[i] = stream.NewRegistered(cfg)[name]
				feedAcc(accs[i], ds, assign[order[i]])
			}
			root := accs[0]
			for _, part := range accs[1:] {
				if err := root.Merge(part); err != nil {
					t.Errorf("seed %d %s: merge: %v", seed, name, err)
					ok = false
				}
			}
			if got := snapJSON(t, root); string(got) != string(want) {
				t.Errorf("seed %d %s: left-fold merge differs from whole:\n got %s\nwant %s", seed, name, got, want)
				ok = false
			}

			// Associativity: a right-leaning merge tree over a different
			// 2-way split gives the same bytes.
			mk := func(devs []string) stream.Accumulator {
				a := stream.NewRegistered(cfg)[name]
				feedAcc(a, ds, devs)
				return a
			}
			cut := 1 + r.Intn(len(ids)-1)
			left, right := mk(ids[:cut]), mk(ids[cut:])
			if err := right.Merge(left); err != nil {
				t.Errorf("seed %d %s: tree merge: %v", seed, name, err)
				ok = false
			}
			if got := snapJSON(t, right); string(got) != string(want) {
				t.Errorf("seed %d %s: right-absorbing merge differs from whole", seed, name)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, quickConfig(15)); err != nil {
		t.Error(err)
	}
}

// TestStreamMergeAfterSealErrors: Seal and Snapshot both seal. A sealed
// accumulator can neither merge nor be merged, and Snapshot renders the
// same bytes whether or not Seal came first.
func TestStreamMergeAfterSealErrors(t *testing.T) {
	ds := randomDevices(3)
	for name := range stream.RegisteredAccumulators {
		cfg := stream.Config{}
		snapped := stream.NewRegistered(cfg)[name]
		feedAcc(snapped, ds, []string{"a"})
		got := snapJSON(t, snapped)
		other := stream.NewRegistered(cfg)[name]
		feedAcc(other, ds, []string{"c"})
		if err := snapped.Merge(other); !errors.Is(err, stream.ErrSealed) {
			t.Errorf("%s: Merge after Snapshot = %v, want ErrSealed", name, err)
		}
		sealed := stream.NewRegistered(cfg)[name]
		feedAcc(sealed, ds, []string{"a"})
		sealed.Seal()
		if want := snapJSON(t, sealed); string(got) != string(want) {
			t.Errorf("%s: Snapshot differs from Snapshot after Seal:\n got %s\nwant %s", name, got, want)
		}
		live := stream.NewRegistered(cfg)[name]
		feedAcc(live, ds, []string{"b"})
		if err := sealed.Merge(live); !errors.Is(err, stream.ErrSealed) {
			t.Errorf("%s: sealed.Merge(live) = %v, want ErrSealed", name, err)
		}
		if err := live.Merge(sealed); !errors.Is(err, stream.ErrSealed) {
			t.Errorf("%s: live.Merge(sealed) = %v, want ErrSealed", name, err)
		}
	}
}

// TestStreamMergeDeviceOverlap: shards must be device-disjoint.
func TestStreamMergeDeviceOverlap(t *testing.T) {
	ds := randomDevices(4)
	for name := range stream.RegisteredAccumulators {
		cfg := stream.Config{}
		a := stream.NewRegistered(cfg)[name]
		b := stream.NewRegistered(cfg)[name]
		feedAcc(a, ds, []string{"a", "b"})
		feedAcc(b, ds, []string{"b", "c"})
		if err := a.Merge(b); !errors.Is(err, stream.ErrDeviceOverlap) {
			t.Errorf("%s: overlap merge = %v, want ErrDeviceOverlap", name, err)
		}
	}
}

// TestStreamMergeTypeAndConfigMismatch: merging across concrete types or
// across thresholds is refused.
func TestStreamMergeTypeAndConfigMismatch(t *testing.T) {
	tbl := stream.NewTables(stream.Config{})
	col := stream.NewCollect(stream.Config{})
	if err := tbl.Merge(col); !errors.Is(err, stream.ErrTypeMismatch) {
		t.Errorf("Tables.Merge(Collect) = %v, want ErrTypeMismatch", err)
	}
	narrow := stream.NewTables(stream.Config{CoalescenceWindow: time.Minute})
	if err := tbl.Merge(narrow); !errors.Is(err, stream.ErrConfigMismatch) {
		t.Errorf("config mismatch merge = %v, want ErrConfigMismatch", err)
	}
	// WithDefaults-equal configs are the same config.
	filled := stream.NewTables(stream.Config{}.WithDefaults())
	if err := tbl.Merge(filled); err != nil {
		t.Errorf("defaulted-config merge = %v, want nil", err)
	}
}

// TestStreamTablesMatchesStudy: the composite accumulator fed interleaved
// records reproduces the batch Study snapshot byte for byte.
func TestStreamTablesMatchesStudy(t *testing.T) {
	f := func(seed uint64) bool {
		ds := randomDevices(seed)
		ids := sortedIDs(ds)
		want, err := json.Marshal(analysis.New(ds, analysis.Options{}).Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		acc := stream.NewTables(stream.Config{})
		for _, id := range ids {
			acc.AddDevice(id)
		}
		// Round-robin across devices: arbitrary interleaving, per-device
		// order preserved.
		for i := 0; ; i++ {
			fed := false
			for _, id := range ids {
				if i < len(ds[id]) {
					acc.Observe(id, ds[id][i])
					fed = true
				}
			}
			if !fed {
				break
			}
		}
		got, err := json.Marshal(acc.Tables())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("seed %d: stream snapshot differs from batch:\n got %s\nwant %s", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConfig(25)); err != nil {
		t.Error(err)
	}
}

// TestStreamPeek: progress counters grow as records are fed and never
// exceed the final totals.
func TestStreamPeek(t *testing.T) {
	ds := randomDevices(9)
	acc := stream.NewCollect(stream.Config{})
	last := stream.Peek{}
	feedAll(ds, acc.AddDevice, func(id string, r core.Record) {
		acc.Observe(id, r)
		p := acc.Peek()
		if p.Records != last.Records+1 {
			t.Fatalf("Peek.Records = %d after %d records", p.Records, last.Records+1)
		}
		if p.Panics < last.Panics || p.HLEvents < last.HLEvents || p.Reboots < last.Reboots {
			t.Fatal("Peek counters went backwards")
		}
		last = p
	})
	sn := acc.Snapshot().(*stream.CollectSnapshot)
	if last.Panics > sn.Panics || last.HLEvents > sn.HLEvents || last.Reboots > sn.Reboots {
		t.Errorf("final Peek %+v exceeds snapshot %+v", last, sn)
	}
	if len(sn.Devices) != len(ds) || sn.Records != last.Records {
		t.Errorf("snapshot devices/records = %d/%d, want %d/%d", len(sn.Devices), sn.Records, len(ds), last.Records)
	}
}

// TestStreamObserveAllocs bounds the steady-state per-record cost of the
// composite accumulator: observing a record must not allocate per record
// beyond the events it finalizes. Skipped under -race (instrumentation
// allocates).
func TestStreamObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	acc := stream.NewTables(stream.Config{})
	acc.AddDevice("a")
	acc.Observe("a", core.Record{Kind: core.KindBoot, Time: 0, Boot: 1, Detected: core.DetectedFirstBoot})
	// Warm up so cursor buffers reach steady state.
	now := int64(sim.Epoch)
	boot := 1
	step := func() {
		boot++
		prev := now
		now += int64(time.Hour)
		acc.Observe("a", core.Record{
			Kind: core.KindBoot, Time: now, Boot: boot,
			Detected: core.DetectedFreeze, PrevBeat: core.BeatAlive,
			PrevTime: prev, OffSeconds: 30,
		})
	}
	for i := 0; i < 64; i++ {
		step()
	}
	// Each reboot an hour apart: every Observe finalizes exactly one prior
	// event, so steady state is reached; the budget covers the finalized
	// HLEvent plus bounded map/slice churn, not O(records) growth. The
	// budget is a ratchet — it has come down from 12 and must not creep
	// back up.
	if avg := testing.AllocsPerRun(200, step); avg > 6 {
		t.Errorf("Observe allocates %.1f objects/boot record in steady state, budget 6", avg)
	}
	// Panic records carry an Apps slice and an activity string; the
	// accumulator may retain a copy of each but nothing more.
	apps := []string{"phone", "camera"}
	panicStep := func() {
		now += int64(time.Minute)
		acc.Observe("a", core.Record{
			Kind: core.KindPanic, Time: now, Category: "KERN-EXEC", PType: 3,
			Apps: apps, Activity: "voice-call",
		})
	}
	for i := 0; i < 64; i++ {
		panicStep()
	}
	if avg := testing.AllocsPerRun(200, panicStep); avg > 6 {
		t.Errorf("Observe allocates %.1f objects/panic record in steady state, budget 6", avg)
	}
}
