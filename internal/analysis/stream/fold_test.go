package stream

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// refLive feeds the reference day fold as LiveStudy feeds its own: each
// device's fold session start kept apart, every delivery folded.
type refLive struct {
	fold     *refDayBuckets
	sessions map[string]*sim.Time
}

func newRefLive(cfg Config) *refLive {
	return &refLive{fold: newRefDayBuckets(cfg.WithDefaults()), sessions: make(map[string]*sim.Time)}
}

func (r *refLive) observe(id string, rec core.Record) {
	s := r.sessions[id]
	if s == nil {
		s = new(sim.Time)
		*s = sim.Never
		r.sessions[id] = s
	}
	r.fold.observe(s, rec)
}

// foldQueries are the live answers the day fold renders, with arguments.
var foldQueries = []struct {
	name string
	args []string
}{
	{"mtbf", nil},
	{"panics", nil},
	{"panics", []string{"0"}},
	{"panics", []string{"2"}},
	{"freezerate", nil},
	{"freezerate", []string{"3"}},
	{"freezerate", []string{"30"}},
}

// checkFold compares every live answer and view the day fold renders with
// the reference's, as marshalled bytes. The mtbf answer's exact MTBF and
// device count come from LiveStudy's own state, not the fold.
func checkFold(t *testing.T, live *LiveStudy, ref *refLive, where string) bool {
	t.Helper()
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ok := true
	check := func(what, got, want string) {
		if got != want {
			t.Errorf("%s: %s differs from the reference fold:\n got %s\nwant %s", where, what, got, want)
			ok = false
		}
	}
	ids := live.ids()
	refDec := ref.fold.decay()
	refDec.Devices = ids
	for _, q := range foldQueries {
		got, err := live.Query(q.name, q.args)
		if err != nil {
			t.Fatalf("%s: query %s %v: %v", where, q.name, q.args, err)
		}
		var want any
		switch q.name {
		case "mtbf":
			want = LiveMTBF{
				Devices:        len(live.sorted),
				MTBF:           live.mtbf(),
				DecayMTBFHours: refDec.MTBFHours,
				AsOfDay:        refDec.AsOfDay,
			}
		case "panics":
			n, _ := optInt(q.args, 5)
			top := refDec.PanicTable
			if n > 0 && len(top) > n {
				top = top[:n]
			}
			want = LivePanics{AsOfDay: refDec.AsOfDay, Total: refDec.Panics, Top: top}
		case "freezerate":
			days, _ := optInt(q.args, 0)
			w := ref.fold.window(days)
			want = LiveFreezeRate{
				FromDay:       w.FromDay,
				ToDay:         w.ToDay,
				Records:       w.Records,
				Freezes:       w.Freezes,
				FreezesPerDay: w.FreezesPerDay,
				UptimeHours:   w.UptimeHours,
				MTBFHours:     w.MTBF.MTBFHours,
			}
		}
		check("query "+q.name+" "+marshal(q.args), got, marshal(want))
	}
	for _, days := range []int{0, 3, 30} {
		w := ref.fold.window(days)
		w.Devices = ids
		check("Window("+strconv.Itoa(days)+")", marshal(live.Window(days)), marshal(w))
	}
	check("Decay()", marshal(live.Decay()), marshal(refDec))
	return ok
}

// maxFoldDays bounds the dense fold: a day is at most
// math.MaxInt64/simDay.
const maxFoldDays = int(math.MaxInt64/simDay) + 1

// checkFoldBounded asserts that the dense fold holds no day past the last
// representable one, so a far-future record costs at most ~107k days.
func checkFoldBounded(t *testing.T, b *dayBuckets, where string) {
	t.Helper()
	// append grows a large slice by at most a quarter, rounded up to
	// whole pages.
	if len(b.days) > maxFoldDays || cap(b.days) > maxFoldDays*5/4+1024 || len(b.decayW) > maxFoldDays {
		t.Fatalf("%s: fold holds %d days (cap %d) and %d weights, want at most %d",
			where, len(b.days), cap(b.days), len(b.decayW), maxFoldDays)
	}
}

// foldOp is one delivery: a record of a device.
type foldOp struct {
	id string
	r  core.Record
}

// dayFoldFeed generates a feed that spans days to years, with devices
// that start before the epoch, panic keys that recur across days, and
// every boot detection, each device's records in order and the devices
// interleaved at random. A third of the seeds shuffle the whole feed. A
// quarter end with a device whose session closes in the last
// representable day and whose last record is timed math.MaxInt64.
func dayFoldFeed(seed uint64) []foldOp {
	r := sim.NewRand(seed)
	gap := []time.Duration{3 * time.Hour, 24 * time.Hour, 8 * 24 * time.Hour, 24 * 24 * time.Hour}[r.Intn(4)]
	cats := []string{"KERN-EXEC", "USER", "E32USER-CBase", "ViewSrv"}
	detections := []core.Detection{core.DetectedFreeze, core.DetectedShutdown, core.DetectedShutdown, core.DetectedLowBattery}
	type device struct {
		now  sim.Time
		boot int
	}
	devs := make([]device, 3+r.Intn(4))
	var ops []foldOp
	for d := range devs {
		devs[d] = device{now: sim.Time(-5*simDay + int64(r.Intn(int(35*simDay)))), boot: 1}
		ops = append(ops, foldOp{string(rune('a' + d)), core.Record{
			Kind: core.KindBoot, Time: int64(devs[d].now), Boot: 1, Detected: core.DetectedFirstBoot,
		}})
	}
	for i := 0; i < len(devs)*(5+r.Intn(40)); i++ {
		d := r.Intn(len(devs))
		dev := &devs[d]
		dev.now = dev.now.Add(time.Duration(r.Exp(float64(gap))))
		rec := core.Record{Kind: core.KindPanic, Time: int64(dev.now), Category: cats[r.Intn(len(cats))], PType: r.Intn(6)}
		if !r.Bool(0.45) {
			dev.boot++
			off := r.Exp(float64(10 * time.Minute))
			bootAt := dev.now.Add(time.Duration(off))
			rec = core.Record{
				Kind: core.KindBoot, Time: int64(bootAt), Boot: dev.boot,
				Detected: detections[r.Intn(len(detections))], PrevTime: int64(dev.now),
				OffSeconds: time.Duration(off).Seconds(),
			}
			dev.now = bootAt
		}
		ops = append(ops, foldOp{string(rune('a' + d)), rec})
	}
	if seed%3 == 0 {
		r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	if seed%4 == 1 {
		const end = math.MaxInt64
		ops = append(ops,
			foldOp{"z", core.Record{Kind: core.KindBoot, Time: end - int64(2*time.Hour), Boot: 1, Detected: core.DetectedFirstBoot}},
			foldOp{"z", core.Record{Kind: core.KindPanic, Time: end - int64(time.Hour), Category: "KERN-EXEC", PType: 3}},
			foldOp{"z", core.Record{Kind: core.KindBoot, Time: end, Boot: 2, Detected: core.DetectedFreeze, PrevTime: end - 1}},
		)
	}
	return ops
}

// TestLiveStudyFoldMatchesReference is the day fold's differential test:
// after every record of the dayFoldFeed feeds, every live answer the fold
// renders and every Window and Decay view equals the map-based reference
// fold's, byte for byte.
func TestLiveStudyFoldMatchesReference(t *testing.T) {
	feeds := 200
	if testing.Short() {
		feeds = 20
	}
	for seed := uint64(1); seed <= uint64(feeds); seed++ {
		live, ref := NewLiveStudy(Config{}), newRefLive(Config{})
		ops := dayFoldFeed(seed)
		for i, o := range ops {
			live.Observe(o.id, o.r)
			ref.observe(o.id, o.r)
			where := "seed " + strconv.FormatUint(seed, 10) + " record " + strconv.Itoa(i+1) + "/" + strconv.Itoa(len(ops))
			checkFoldBounded(t, live.fold, where)
			if !checkFold(t, live, ref, where) {
				return
			}
		}
	}
}

// FuzzLiveDayFold runs the reference differential over fuzzed record
// sequences: six bytes a record, any time from math.MinInt64 to
// math.MaxInt64, any previous-down time, detection, off time and panic key.
func FuzzLiveDayFold(f *testing.F) {
	f.Add([]byte{0x04, 0, 0, 0, 0, 0, 0x00, 10, 0, 2, 0, 5, 0x14, 20, 0, 4, 3, 9})
	f.Add([]byte{0x44, 0, 0, 0, 0, 0, 0x44, 0, 0, 1, 0, 0, 0x40, 1, 0, 0, 0, 7})
	f.Add([]byte{0x84, 0, 0, 0, 0, 0, 0x05, 0xff, 0xff, 3, 1, 2, 0x25, 48, 0, 200, 90, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cats := []string{"KERN-EXEC", "USER", "E32USER-CBase", "ViewSrv"}
		detections := []core.Detection{core.DetectedFreeze, core.DetectedShutdown, core.DetectedFirstBoot, core.DetectedLowBattery}
		live, ref := NewLiveStudy(Config{}), newRefLive(Config{})
		for i := 0; len(data) >= 6 && i < 48; i++ {
			b := data[:6]
			data = data[6:]
			var at int64
			units := int64(b[1]) | int64(b[2])<<8
			switch b[0] >> 6 {
			case 1:
				at = math.MaxInt64 - units*int64(time.Hour)
			case 2:
				at = math.MinInt64 + units*int64(time.Hour)
			default:
				at = int64(int16(units)) * int64(time.Hour)
			}
			rec := core.Record{Time: at}
			switch b[0] >> 2 & 3 {
			case 0:
				rec.Kind, rec.Category, rec.PType = core.KindPanic, cats[b[5]&3], int(b[5]>>2)
			case 1, 2:
				rec.Kind = core.KindBoot
				rec.Detected = detections[b[0]>>4&3]
				rec.PrevTime = at - int64(b[3])*int64(30*time.Minute)
				rec.OffSeconds = 2 * float64(b[4])
			}
			id := string(rune('a' + b[0]&3))
			live.Observe(id, rec)
			ref.observe(id, rec)
			where := "record " + strconv.Itoa(i+1)
			checkFoldBounded(t, live.fold, where)
			if !checkFold(t, live, ref, where) {
				return
			}
		}
	})
}
