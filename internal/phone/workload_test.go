package phone

import (
	"math"
	"testing"
	"time"

	"symfail/internal/sim"
)

func TestNightShutdownsClusterAtSleepHour(t *testing.T) {
	d, eng := newTestDevice(t, 41, func(c *Config) {
		c.NightOffProb = 1 // every night
		c.DayOffPerHour = 0
		c.PanicOpportunityPerHour = 0
		c.SpontaneousFreezePerHour = 0
		c.SpontaneousShutdownPerHour = 0
		c.OutputFailurePerHour = 0
	})
	if err := eng.Run(sim.Epoch.Add(10 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	var nightOffs int
	for _, e := range d.Oracle().Events {
		if e.Kind == TruthUserShutdown && e.Cause == "night" {
			nightOffs++
			// Shutdown must happen around the sleep hour (23:15 config,
			// with some jitter).
			h := e.Time.TimeOfDay().Hours()
			if h < d.cfg.SleepHour-0.5 || h > d.cfg.SleepHour+2 {
				t.Errorf("night off at hour %.2f", h)
			}
		}
	}
	if nightOffs < 8 {
		t.Errorf("night offs = %d over 10 days with prob 1", nightOffs)
	}
}

func TestNightOffDurationAround30000Seconds(t *testing.T) {
	d, eng := newTestDevice(t, 43, func(c *Config) {
		c.NightOffProb = 1
		c.DayOffPerHour = 0
		c.PanicOpportunityPerHour = 0
		c.SpontaneousFreezePerHour = 0
		c.SpontaneousShutdownPerHour = 0
		c.OutputFailurePerHour = 0
	})
	if err := eng.Run(sim.Epoch.Add(20 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	var offs []float64
	events := d.Oracle().Events
	for i, e := range events {
		if e.Kind != TruthUserShutdown {
			continue
		}
		for j := i + 1; j < len(events); j++ {
			if events[j].Kind == TruthBoot {
				offs = append(offs, events[j].Time.Sub(e.Time).Seconds())
				break
			}
		}
	}
	if len(offs) < 10 {
		t.Fatalf("only %d night offs", len(offs))
	}
	med := median(offs)
	if math.Abs(med-30000) > 6000 {
		t.Errorf("median night off = %.0f s, want ~30000", med)
	}
}

func TestLowBatteryShutdownHappensWithoutCharging(t *testing.T) {
	d, eng := newTestDevice(t, 47, func(c *Config) {
		c.EveningChargeProb = 0 // never charges in the evening
		c.NightOffProb = 0      // never off overnight (no overnight charge)
		c.DayOffPerHour = 0
		c.PanicOpportunityPerHour = 0
		c.SpontaneousFreezePerHour = 0
		c.SpontaneousShutdownPerHour = 0
		c.OutputFailurePerHour = 0
		c.BatteryDrainPerHour = 0.03 // ~33 h of battery
	})
	if err := eng.Run(sim.Epoch.Add(5 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.Oracle().Count(TruthLowBattery) == 0 {
		t.Error("battery never ran out despite no charging")
	}
}

func TestEveningChargeKeepsPhoneAlive(t *testing.T) {
	d, eng := newTestDevice(t, 53, func(c *Config) {
		c.EveningChargeProb = 1 // charges every evening
		c.NightOffProb = 0
		c.DayOffPerHour = 0
		c.PanicOpportunityPerHour = 0
		c.SpontaneousFreezePerHour = 0
		c.SpontaneousShutdownPerHour = 0
		c.OutputFailurePerHour = 0
		c.BatteryDrainPerHour = 0.03
	})
	if err := eng.Run(sim.Epoch.Add(5 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := d.Oracle().Count(TruthLowBattery); got != 0 {
		t.Errorf("low-battery shutdowns = %d despite daily charging", got)
	}
}

func TestLoggerOffProducesLoggerOffReason(t *testing.T) {
	d, eng := newTestDevice(t, 59, func(c *Config) {
		c.DayOffPerHour = 1.0 / 4 // frequent
		c.LoggerOffProb = 1       // always the logger-off variant
		c.NightOffProb = 0
		c.PanicOpportunityPerHour = 0
		c.SpontaneousFreezePerHour = 0
		c.SpontaneousShutdownPerHour = 0
		c.OutputFailurePerHour = 0
	})
	eng.Step() // boot
	var reasons []ShutdownReason
	d.RegisterShutdownHook(func(r ShutdownReason) { reasons = append(reasons, r) })
	if err := eng.Run(sim.Epoch.Add(48 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.Oracle().Count(TruthLoggerOff) == 0 {
		t.Fatal("no logger-off events")
	}
	// The first shutdown this boot saw must be the logger-off reason.
	if len(reasons) == 0 || reasons[0] != ReasonLoggerOff {
		t.Errorf("hook reasons = %v", reasons)
	}
}

func TestActivityMixRoughlyFollowsWeights(t *testing.T) {
	d, eng := newTestDevice(t, 61, func(c *Config) {
		c.PanicOpportunityPerHour = 0
		c.SpontaneousFreezePerHour = 0
		c.SpontaneousShutdownPerHour = 0
		c.OutputFailurePerHour = 0
		c.NightOffProb = 0
		c.DayOffPerHour = 0
		c.ActivitiesPerDay = 60 // plenty of samples
	})
	eng.Step()
	counts := make(map[Activity]int)
	total := 0
	// Sample directly from the picker for distribution accuracy.
	for i := 0; i < 20000; i++ {
		counts[d.pickActivity()]++
		total++
	}
	var weightSum float64
	for _, w := range d.cfg.ActivityMix {
		weightSum += w
	}
	for act, w := range d.cfg.ActivityMix {
		want := w / weightSum
		got := float64(counts[act]) / float64(total)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%s share = %.3f, want ~%.3f", act, got, want)
		}
	}
}

func TestActivitiesOnlyDuringWakingHours(t *testing.T) {
	d, eng := newTestDevice(t, 67, func(c *Config) {
		c.PanicOpportunityPerHour = 0
		c.SpontaneousFreezePerHour = 0
		c.SpontaneousShutdownPerHour = 0
		c.OutputFailurePerHour = 0
		c.NightOffProb = 0
		c.DayOffPerHour = 0
	})
	if err := eng.Run(sim.Epoch.Add(7 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range d.activityLog {
		h := rec.Start.TimeOfDay().Hours()
		if h < d.cfg.WakeHour-0.01 || h > d.cfg.SleepHour+0.01 {
			t.Errorf("activity started at hour %.2f, outside waking window", h)
		}
	}
	if len(d.activityLog) == 0 {
		t.Error("no registered activities in a week")
	}
}

func TestActivityRecordsCloseOnShutdown(t *testing.T) {
	d, eng := newTestDevice(t, 71, nil)
	eng.Step()
	d.beginActivity(ActVoiceCall)
	if d.CurrentActivity() != ActVoiceCall {
		t.Fatal("call did not start")
	}
	d.Shutdown(ReasonUser, time.Hour)
	for _, rec := range d.activityLog {
		if rec.Ongoing() {
			t.Errorf("open activity record after shutdown: %+v", rec)
		}
	}
	if d.CurrentActivity() != ActIdle {
		t.Error("activity survived shutdown")
	}
}

func TestDeviceEventLoadIsBounded(t *testing.T) {
	// Guard against event-queue explosions: a quiet phone-month must stay
	// under a sane number of engine events.
	_, eng := newTestDevice(t, 73, nil)
	if err := eng.Run(sim.Epoch.Add(30 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	perDay := float64(eng.Fired()) / 30
	if perDay > 2500 {
		t.Errorf("%.0f engine events per phone-day (budget: 2500)", perDay)
	}
}

func TestMeanIntervalClampsTinyRates(t *testing.T) {
	if _, ok := meanInterval(0); ok {
		t.Error("zero rate accepted")
	}
	if _, ok := meanInterval(-1); ok {
		t.Error("negative rate accepted")
	}
	if _, ok := meanInterval(1e-9); ok {
		t.Error("once-per-billion-hours rate should be treated as never")
	}
	mean, ok := meanInterval(1.0 / 300)
	if !ok || mean != 300*time.Hour {
		t.Errorf("meanInterval(1/300h) = %v, %v", mean, ok)
	}
	// A rate at the clamp boundary must not overflow.
	mean, ok = meanInterval(1e-6)
	if !ok || mean <= 0 {
		t.Errorf("boundary rate = %v, %v", mean, ok)
	}
}
