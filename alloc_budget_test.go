package symfail

import (
	"runtime"
	"testing"
	"time"

	"symfail/internal/analysis/stream"
	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// TestAllocBudgets is the repo-wide allocation ratchet: every hot path gets
// a named steady-state budget, and a change that regresses one fails here
// with the subsystem spelled out. Budgets only ever go down — when an
// optimisation lands, tighten the number in this table so the gain cannot
// silently erode. The collection tier's CHUNK path, whose steps are
// unexported, keeps its cases in internal/collect's TestAllocBudgets.
// Skipped under -race (instrumentation allocates).
// decodeSink keeps the decoder's result alive, as a caller's would be.
var decodeSink core.Record

// panicKeySink keeps the panic key alive, as a reducer's map would.
var panicKeySink string

func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	cases := []struct {
		name   string
		budget float64
		// setup returns the op to measure, already warmed to steady state.
		setup func() func()
		// perEvent, when set instead, runs a whole simulation and returns
		// its allocations per fired event; budget is then per event.
		perEvent func(t *testing.T) float64
	}{
		{
			// The tentpole contract: scheduling and firing an event on the
			// timing-wheel engine reuses pooled nodes and interned closures,
			// so the simulation hot loop allocates nothing at all.
			name: "sim/engine: schedule+fire one event", budget: 0,
			setup: func() func() {
				eng := sim.NewEngine()
				fn := func() {}
				op := func() {
					eng.After(time.Second, fn)
					eng.Step()
				}
				for i := 0; i < 256; i++ {
					op()
				}
				return op
			},
		},
		{
			name: "core: AppendRecord into warm scratch", budget: 0,
			setup: func() func() {
				rec := core.Record{
					Kind: core.KindPanic, Time: 1234567890, Category: "KERN-EXEC",
					PType: 3, Apps: []string{"phone", "camera"}, Activity: "voice-call",
				}
				buf := make([]byte, 0, 256)
				return func() { buf = core.AppendRecordLine(buf[:0], rec) }
			},
		},
		{
			name: "core: AppendFrame into warm scratch", budget: 0,
			setup: func() func() {
				payload := core.AppendRecord(nil, core.Record{Kind: core.KindBoot, Time: 7, Boot: 2})
				buf := make([]byte, 0, 256)
				return func() { buf = core.AppendFrame(buf[:0], payload) }
			},
		},
		{
			// The collection tier decodes every record it is sent with the
			// canonical decoder: only the free-text OS version allocates
			// (json.Unmarshal made 9 allocations for this record).
			name: "core: decode canonical boot record", budget: 1,
			setup: func() func() {
				payload := core.AppendRecord(nil, core.Record{
					Kind: core.KindBoot, Time: 1234567890, Boot: 7, OSVersion: "8.0",
					PrevBeat: core.BeatAlive, PrevTime: 1234000000, OffSeconds: 30.5,
					Detected: core.DetectedFreeze,
				})
				return func() { decodeSink, _ = core.DecodeRecord(payload) }
			},
		},
		{
			// The category, the app list, each app and the activity (13
			// under json.Unmarshal).
			name: "core: decode canonical panic record", budget: 5,
			setup: func() func() {
				payload := core.AppendRecord(nil, core.Record{
					Kind: core.KindPanic, Time: 1234567890, Category: "KERN-EXEC",
					PType: 3, Apps: []string{"phone", "camera"}, Activity: "voice-call",
				})
				return func() { decodeSink, _ = core.DecodeRecord(payload) }
			},
		},
		{
			// Every reducer keys its panic counts by this string: one
			// concatenation (fmt.Sprintf made 2 allocations).
			name: "core: PanicKey of a panic record", budget: 1,
			setup: func() func() {
				rec := core.Record{Kind: core.KindPanic, Category: "E32USER-CBase", PType: 47}
				return func() { panicKeySink = rec.PanicKey() }
			},
		},
		{
			// Down from 12 when the accumulators still round-tripped
			// through encoding/json; the remaining allocs are the finalized
			// HLEvent and its retained strings.
			name: "analysis/stream: Observe boot record", budget: 6,
			setup: func() func() {
				acc := stream.NewTables(stream.Config{})
				acc.AddDevice("a")
				now, boot := int64(sim.Epoch), 1
				acc.Observe("a", core.Record{Kind: core.KindBoot, Time: now, Boot: boot, Detected: core.DetectedFirstBoot})
				op := func() {
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
					op()
				}
				return op
			},
		},
		{
			name: "analysis/stream: Observe panic record", budget: 6,
			setup: func() func() {
				acc := stream.NewTables(stream.Config{})
				acc.AddDevice("a")
				acc.Observe("a", core.Record{Kind: core.KindBoot, Time: 0, Boot: 1, Detected: core.DetectedFirstBoot})
				now := int64(sim.Epoch)
				apps := []string{"phone", "camera"}
				op := func() {
					now += int64(time.Minute)
					acc.Observe("a", core.Record{
						Kind: core.KindPanic, Time: now, Category: "KERN-EXEC",
						PType: 3, Apps: apps, Activity: "voice-call",
					})
				}
				for i := 0; i < 64; i++ {
					op()
				}
				return op
			},
		},
		{
			// The heartbeat's file traffic: the frame travels as the
			// message body, the size comes back as the completion code,
			// and a rewrite at the budget reuses the file's capacity.
			name: "symbos: AppendFile+SizeFile on a warm file", budget: 0,
			setup: func() func() {
				k := symbos.NewKernel(sim.NewEngine())
				files := symbos.NewFileServer(k, phone.NewFS()).Connect(k.StartProcess("Logger", false).Main())
				frame := core.AppendFrame(nil, core.AppendBeat(nil, core.Beat{Kind: core.BeatAlive, Time: 7}))
				op := func() {
					if n, _ := files.SizeFile("beats"); n+len(frame) > 4<<10 {
						files.WriteFile("beats", frame)
						return
					}
					files.AppendFile("beats", frame)
				}
				for i := 0; i < 1024; i++ {
					op()
				}
				return op
			},
		},
		{
			// One phone with the logger for a simulated month: every
			// handler the engine fires, the logger's file traffic
			// included. Measured 0.142 (0.152 while event nodes were
			// separate objects and events carried labels; 0.594 before
			// launches, sessions, workload arming and descriptors stopped
			// allocating per use; 2.229 while file data travelled as
			// strings).
			name: "phone+core: one logged phone-month", budget: 0.150,
			perEvent: func(t *testing.T) float64 {
				allocs, _ := loggedPhoneMonth(t)
				return allocs
			},
		},
		{
			// The same month in heap bytes per event, which is what paces
			// the collector. Measured 12.0 (12.2 before the node arena,
			// 38.3 before the per-use allocations went).
			name: "phone+core: bytes of one logged phone-month", budget: 12.5,
			perEvent: func(t *testing.T) float64 {
				_, bytes := loggedPhoneMonth(t)
				return bytes
			},
		},
		{
			// The live day fold interns each panic key once and counts a
			// key it has seen that day in place: no key string per panic.
			name: "analysis/stream: LiveStudy.Observe of a repeated panic record", budget: 0,
			setup: func() func() {
				live := stream.NewLiveStudy(stream.Config{})
				rec := core.Record{Kind: core.KindPanic, Time: int64(sim.Epoch), Category: "KERN-EXEC", PType: 3}
				live.Observe("a", rec)
				return func() { live.Observe("a", rec) }
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.perEvent != nil {
				if avg := tc.perEvent(t); avg > tc.budget {
					t.Errorf("%s: %.3f per event, budget %g", tc.name, avg, tc.budget)
				}
				return
			}
			op := tc.setup()
			if avg := testing.AllocsPerRun(500, op); avg > tc.budget {
				t.Errorf("%s: %.1f allocs/op in steady state, budget %g", tc.name, avg, tc.budget)
			}
		})
	}
}

// loggedPhoneMonth runs one phone with the logger for a simulated month
// (seed 2007, one worker, so the count is deterministic) and returns its
// heap allocations and bytes per fired event.
func loggedPhoneMonth(t *testing.T) (allocs, bytes float64) {
	fl := phone.NewFleet(phone.FleetConfig{Seed: 2007, Phones: 1, Duration: phone.StudyMonth, Workers: 1})
	core.Install(fl.Devices[0], core.Config{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fl.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fired := float64(fl.Engines[0].Fired())
	return float64(after.Mallocs-before.Mallocs) / fired, float64(after.TotalAlloc-before.TotalAlloc) / fired
}
