package core

import (
	"testing"
	"time"

	"symfail/internal/phone"
	"symfail/internal/sim"
)

// newLoggedDevice enrols a device with the logger installed and boots it.
func newLoggedDevice(t *testing.T, seed uint64, mutate func(*phone.Config)) (*phone.Device, *Logger, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := phone.DefaultConfig(seed)
	if mutate != nil {
		mutate(&cfg)
	}
	d := phone.NewDevice("phone-under-test", eng, cfg)
	l := Install(d, Config{})
	d.Enroll(sim.Epoch)
	eng.Step() // boot
	return d, l, eng
}

// quiet turns off all stochastic failure sources so tests control events.
func quiet(c *phone.Config) {
	c.PanicOpportunityPerHour = 0
	c.SpontaneousFreezePerHour = 0
	c.SpontaneousShutdownPerHour = 0
	c.NightOffProb = 0
	c.DayOffPerHour = 0
	c.ActivitiesPerDay = 0.0001
}

func bootRecords(recs []Record) []Record {
	var out []Record
	for _, r := range recs {
		if r.Kind == KindBoot {
			out = append(out, r)
		}
	}
	return out
}

func TestFirstBootRecord(t *testing.T) {
	_, l, _ := newLoggedDevice(t, 1, quiet)
	recs := l.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1 boot record", len(recs))
	}
	if recs[0].Kind != KindBoot || recs[0].Detected != DetectedFirstBoot {
		t.Errorf("first record = %+v", recs[0])
	}
	if recs[0].Boot != 1 {
		t.Errorf("Boot = %d", recs[0].Boot)
	}
}

func TestHeartbeatKeepsBeatFresh(t *testing.T) {
	d, l, eng := newLoggedDevice(t, 2, quiet)
	if err := eng.Run(eng.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	data, ok := d.FS().Read(l.Config().BeatsPath)
	if !ok {
		t.Fatal("no beats file")
	}
	beat, valid := ParseBeat(data)
	if !valid || beat.Kind != BeatAlive {
		t.Fatalf("beat = %+v valid=%v", beat, valid)
	}
	age := eng.Now().Sub(sim.Time(beat.Time))
	if age > l.Config().HeartbeatPeriod {
		t.Errorf("last beat is %v old, period is %v", age, l.Config().HeartbeatPeriod)
	}
}

func TestFreezeDetectedOnNextBoot(t *testing.T) {
	d, l, eng := newLoggedDevice(t, 3, quiet)
	if err := eng.Run(eng.Now().Add(30 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	d.Freeze("test freeze")
	// Run long enough for the battery pull and reboot.
	if err := eng.Run(eng.Now().Add(6 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.BootCount() != 2 {
		t.Fatalf("BootCount = %d", d.BootCount())
	}
	boots := bootRecords(l.Records())
	if len(boots) != 2 {
		t.Fatalf("boot records = %d", len(boots))
	}
	second := boots[1]
	if second.Detected != DetectedFreeze {
		t.Errorf("Detected = %q, want freeze", second.Detected)
	}
	if second.PrevBeat != BeatAlive {
		t.Errorf("PrevBeat = %q, want ALIVE", second.PrevBeat)
	}
	if second.OffSeconds <= 0 {
		t.Errorf("OffSeconds = %v", second.OffSeconds)
	}
}

func TestSelfShutdownDetectedAsShutdownWithShortOffTime(t *testing.T) {
	d, l, eng := newLoggedDevice(t, 4, quiet)
	if err := eng.Run(eng.Now().Add(10 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	d.SelfShutdown("test")
	if err := eng.Run(eng.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	boots := bootRecords(l.Records())
	if len(boots) != 2 {
		t.Fatalf("boot records = %d", len(boots))
	}
	rec := boots[1]
	if rec.Detected != DetectedShutdown || rec.PrevBeat != BeatReboot {
		t.Errorf("record = %+v", rec)
	}
	// Self-shutdown off times cluster around 80 s (Figure 2's inner
	// histogram); they must sit below the 360 s threshold.
	if rec.OffSeconds <= 0 || rec.OffSeconds > 360 {
		t.Errorf("OffSeconds = %v, want (0, 360]", rec.OffSeconds)
	}
}

func TestUserShutdownDetectedAsShutdownWithLongOffTime(t *testing.T) {
	d, l, eng := newLoggedDevice(t, 5, quiet)
	if err := eng.Run(eng.Now().Add(10 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	d.Shutdown(phone.ReasonUser, 2*time.Hour)
	if err := eng.Run(eng.Now().Add(3 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	boots := bootRecords(l.Records())
	rec := boots[1]
	if rec.Detected != DetectedShutdown {
		t.Errorf("Detected = %q", rec.Detected)
	}
	if rec.OffSeconds < 7100 || rec.OffSeconds > 7300 {
		t.Errorf("OffSeconds = %v, want ~7200", rec.OffSeconds)
	}
}

func TestLowBatteryAndLoggerOffDetections(t *testing.T) {
	d, l, eng := newLoggedDevice(t, 6, quiet)
	if err := eng.Run(eng.Now().Add(10 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	d.Shutdown(phone.ReasonLowBattery, 30*time.Minute)
	if err := eng.Run(eng.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	d.Shutdown(phone.ReasonLoggerOff, 30*time.Minute)
	if err := eng.Run(eng.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	boots := bootRecords(l.Records())
	if len(boots) != 3 {
		t.Fatalf("boot records = %d", len(boots))
	}
	if boots[1].Detected != DetectedLowBattery || boots[1].PrevBeat != BeatLowBat {
		t.Errorf("low battery boot = %+v", boots[1])
	}
	if boots[2].Detected != DetectedLoggerOff || boots[2].PrevBeat != BeatMAOff {
		t.Errorf("logger-off boot = %+v", boots[2])
	}
}

func TestPanicRecordCarriesContext(t *testing.T) {
	d, l, eng := newLoggedDevice(t, 7, quiet)
	if err := eng.Run(eng.Now().Add(5 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Open an app and panic inside it.
	a := d.LaunchApp(phone.AppMessages)
	d.Kernel().Exec(a.Proc().Main(), func() {
		d.Kernel().Raise("KERN-EXEC", 3, "test access violation")
	})
	var panics []Record
	for _, r := range l.Records() {
		if r.Kind == KindPanic {
			panics = append(panics, r)
		}
	}
	if len(panics) != 1 {
		t.Fatalf("panic records = %d", len(panics))
	}
	p := panics[0]
	if p.Category != "KERN-EXEC" || p.PType != 3 {
		t.Errorf("panic identity = %s %d", p.Category, p.PType)
	}
	if p.PanicKey() != "KERN-EXEC 3" {
		t.Errorf("PanicKey = %q", p.PanicKey())
	}
	found := false
	for _, app := range p.Apps {
		if app == phone.AppMessages {
			found = true
		}
	}
	if !found {
		t.Errorf("running apps %v missing the panicking app", p.Apps)
	}
	if p.Activity != "unspecified" {
		t.Errorf("Activity = %q, want unspecified (idle)", p.Activity)
	}
}

func TestPanicDuringCallTaggedVoiceCall(t *testing.T) {
	d, l, eng := newLoggedDevice(t, 8, func(c *phone.Config) {
		quiet(c)
		// One activity class only: calls, very frequent and long.
		c.ActivitiesPerDay = 600
		c.ActivityMix = map[phone.Activity]float64{phone.ActVoiceCall: 1}
		c.ActivityMedianDuration = map[phone.Activity]time.Duration{
			phone.ActVoiceCall: 10 * time.Minute,
		}
		c.ActivitySigma = 0.05
	})
	// Run until a call is in progress.
	deadline := eng.Now().Add(12 * time.Hour)
	for d.CurrentActivity() != phone.ActVoiceCall && eng.Now().Before(deadline) {
		if !eng.Step() {
			break
		}
	}
	if d.CurrentActivity() != phone.ActVoiceCall {
		t.Fatal("never entered a voice call")
	}
	a := d.LaunchApp(phone.AppTelephone)
	d.Kernel().Exec(a.Proc().Main(), func() {
		d.Kernel().Raise("USER", 11, "descriptor overflow in call UI")
	})
	var last *Record
	for _, r := range l.Records() {
		if r.Kind == KindPanic {
			r := r
			last = &r
		}
	}
	if last == nil {
		t.Fatal("no panic record")
	}
	if last.Activity != string(phone.ActVoiceCall) {
		t.Errorf("Activity = %q, want voice-call", last.Activity)
	}
}

func TestRecordsRoundTripThroughParse(t *testing.T) {
	recs := []Record{
		{Kind: KindBoot, Time: 123, Boot: 1, Detected: DetectedFirstBoot},
		{Kind: KindPanic, Time: 456, Category: "USER", PType: 11, Apps: []string{"Messages"}, Activity: "message"},
	}
	var buf []byte
	for _, r := range recs {
		buf = append(buf, EncodeRecord(r)...)
	}
	buf = append(buf, []byte("not json\n{\"kind\":")...) // corruption at the tail
	got := ParseRecords(buf)
	if len(got) != 2 {
		t.Fatalf("parsed %d records", len(got))
	}
	if got[0].Detected != DetectedFirstBoot || got[1].PanicKey() != "USER 11" {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got[1].When() != sim.Time(456) {
		t.Errorf("When = %v", got[1].When())
	}
}

func TestParseBeatRejectsGarbage(t *testing.T) {
	if _, ok := ParseBeat([]byte("{")); ok {
		t.Error("accepted truncated beat")
	}
	if _, ok := ParseBeat([]byte(`{"kind":"WHAT","time":1}`)); ok {
		t.Error("accepted unknown beat kind")
	}
	if b, ok := ParseBeat(EncodeBeat(Beat{Kind: BeatReboot, Time: 9})); !ok || b.Kind != BeatReboot || b.Time != 9 {
		t.Error("round trip failed")
	}
}

func TestLoggerSurvivesManyRebootCycles(t *testing.T) {
	d, l, eng := newLoggedDevice(t, 9, quiet)
	for i := 0; i < 10; i++ {
		if err := eng.Run(eng.Now().Add(20 * time.Minute)); err != nil {
			t.Fatal(err)
		}
		d.Shutdown(phone.ReasonUser, 5*time.Minute)
		if err := eng.Run(eng.Now().Add(6 * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	boots := bootRecords(l.Records())
	if len(boots) != 11 {
		t.Fatalf("boot records = %d, want 11", len(boots))
	}
	for i, b := range boots[1:] {
		if b.Detected != DetectedShutdown {
			t.Errorf("boot %d detected %q", i+2, b.Detected)
		}
	}
}

func TestRunAppAndActivityFilesMaintained(t *testing.T) {
	d, l, eng := newLoggedDevice(t, 10, nil)
	if err := eng.Run(eng.Now().Add(36 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.State() != phone.StateOn {
		// A failure may have the phone off right now; that's fine — the
		// files must still exist from when it was on.
		t.Log("phone is not on at inspection time")
	}
	if !d.FS().Exists(l.Config().ActivityPath) {
		t.Error("activity file missing after 36 h")
	}
	if !d.FS().Exists(l.Config().PowerPath) {
		t.Error("power file missing after 36 h")
	}
	// runapp file exists (even if the sampled list was empty at times).
	if !d.FS().Exists(l.Config().RunAppPath) {
		t.Error("runapp file missing after 36 h")
	}
}

func TestLoggerDetectionMatchesOracleOnLongRun(t *testing.T) {
	// End-to-end detection accuracy: every ground-truth freeze must be
	// classified as a freeze by the next boot record, and no orderly
	// shutdown may be classified as a freeze.
	d, l, eng := newLoggedDevice(t, 11, nil)
	if err := eng.Run(eng.Now().Add(45 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	d.Finalize()

	truthFreezes := d.Oracle().Count(phone.TruthFreeze)
	var loggedFreezes, loggedShutdowns int
	for _, r := range bootRecords(l.Records()) {
		switch r.Detected {
		case DetectedFreeze:
			loggedFreezes++
		case DetectedShutdown:
			loggedShutdowns++
		}
	}
	// Every battery-pulled freeze that was followed by a boot appears in
	// the log. The last freeze may be cut off by study end (no reboot),
	// hence the tolerance of one.
	if diff := truthFreezes - loggedFreezes; diff < 0 || diff > 1 {
		t.Errorf("oracle freezes = %d, logged freezes = %d", truthFreezes, loggedFreezes)
	}
	truthShutdowns := d.Oracle().Count(phone.TruthSelfShutdown) + d.Oracle().Count(phone.TruthUserShutdown)
	if diff := truthShutdowns - loggedShutdowns; diff < 0 || diff > 1 {
		t.Errorf("oracle shutdowns = %d, logged = %d", truthShutdowns, loggedShutdowns)
	}
	// Panic records match the oracle panic count exactly: RDebug sees
	// every panic.
	var panicRecs int
	for _, r := range l.Records() {
		if r.Kind == KindPanic {
			panicRecs++
		}
	}
	if panicRecs != d.Oracle().PanicCount() {
		t.Errorf("panic records = %d, oracle = %d", panicRecs, d.Oracle().PanicCount())
	}
}

func TestLogRotationKeepsRecentRecordsParseable(t *testing.T) {
	d, l, eng := newLoggedDevice(t, 12, func(c *phone.Config) { quiet(c) })
	// Tiny cap: force many rotations by cycling boots.
	// (Install already ran in newLoggedDevice; re-install with a small cap
	// is not possible, so exercise rotate directly plus an integration
	// sanity check below.)
	_ = d
	_ = l
	_ = eng

	var data []byte
	for i := 0; i < 100; i++ {
		data = append(data, EncodeRecord(Record{Kind: KindBoot, Time: int64(i), Boot: i + 1, Detected: DetectedFirstBoot})...)
	}
	kept := rotate(data, 500)
	if len(kept) > 500+200 {
		t.Fatalf("rotate kept %d bytes", len(kept))
	}
	recs := ParseRecords(kept)
	if len(recs) == 0 {
		t.Fatal("rotation destroyed all records")
	}
	// The survivors are the MOST RECENT records, contiguous to the end.
	if recs[len(recs)-1].Boot != 100 {
		t.Errorf("last record boot = %d, want 100", recs[len(recs)-1].Boot)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Boot != recs[i-1].Boot+1 {
			t.Errorf("non-contiguous survivors at %d", i)
		}
	}
	// No partial first line: every parsed record is intact (ParseRecords
	// would have skipped a torn line, shrinking the count).
	lines := 0
	for _, b := range kept {
		if b == '\n' {
			lines++
		}
	}
	if lines != len(recs) {
		t.Errorf("%d lines vs %d records: torn line survived", lines, len(recs))
	}
}

func TestRotateNoopWhenSmall(t *testing.T) {
	data := []byte("{\"kind\":\"boot\"}\n")
	if got := rotate(data, 1000); string(got) != string(data) {
		t.Error("rotate modified small data")
	}
}

func TestLoggerEnforcesLogCapEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	cfg := phone.DefaultConfig(31)
	quiet(&cfg)
	cfg.DayOffPerHour = 2 // constant rebooting: lots of boot records
	d := phone.NewDevice("rotate-e2e", eng, cfg)
	l := Install(d, Config{MaxLogBytes: 2048})
	d.Enroll(sim.Epoch)
	if err := eng.Run(sim.Epoch.Add(20 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	size := d.FS().Size(l.Config().LogPath)
	if size > 2048+512 {
		t.Errorf("log grew to %d bytes despite 2048 cap", size)
	}
	if recs := l.Records(); len(recs) == 0 {
		t.Error("rotated log unparseable")
	}
}
