package phone

import (
	"strings"
	"testing"
	"time"

	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// forceInject runs one injection method on a booted device and returns the
// panic keys captured by RDebug (some injections defer the panic to the
// next engine tick, so the engine is drained).
func forceInject(t *testing.T, inject func(*faultModel)) []string {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(77)
	// Silence stochastic sources so only the forced injection panics.
	cfg.PanicOpportunityPerHour = 0
	cfg.SpontaneousFreezePerHour = 0
	cfg.SpontaneousShutdownPerHour = 0
	cfg.OutputFailurePerHour = 0
	cfg.ActivitiesPerDay = 0.0001
	cfg.NightOffProb = 0
	cfg.DayOffPerHour = 0
	cfg.BurstProb = 0 // no cascades: exactly one panic per injection
	d := NewDevice("inject-test", eng, cfg)
	d.Enroll(sim.Epoch)
	eng.Step() // boot

	var keys []string
	d.Kernel().SubscribeRDebug(func(p *symbos.Panic) { keys = append(keys, p.Key()) })
	inject(d.faults)
	// Drain deferred dispatches without advancing past scheduled HL
	// reactions (they are guarded anyway).
	if err := eng.Run(eng.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestEveryInjectionRaisesItsPanic(t *testing.T) {
	cases := []struct {
		want   string
		inject func(*faultModel)
	}{
		{"KERN-EXEC 3", (*faultModel).injectAccessViolation},
		{"KERN-EXEC 0", (*faultModel).injectBadHandle},
		{"KERN-EXEC 15", (*faultModel).injectTimerInUse},
		{"E32USER-CBase 33", (*faultModel).injectObjectRefsRemain},
		{"E32USER-CBase 46", (*faultModel).injectStraySignal},
		{"E32USER-CBase 47", (*faultModel).injectRunLLeave},
		{"E32USER-CBase 69", (*faultModel).injectNoTrapHandler},
		{"E32USER-CBase 91", (*faultModel).injectPopUnderflow},
		{"E32USER-CBase 92", (*faultModel).injectPopDestroyUnderflow},
		{"USER 70", (*faultModel).injectNullMessagePtr},
		{"KERN-SVR 0", (*faultModel).injectCorruptClose},
		{"EIKON-LISTBOX 3", (*faultModel).injectListboxNoView},
		{"EIKON-LISTBOX 5", (*faultModel).injectListboxBadIndex},
		{"EIKCOCTL 70", (*faultModel).injectEdwinCorrupt},
		{"MMFAudioClient 4", (*faultModel).injectVolume},
		{"MSGS Client 3", (*faultModel).injectMsgsOverflow},
		{"USER 10", (*faultModel).injectDesOutOfRange},
		{"USER 11", (*faultModel).injectDesOverflow},
		{"ViewSrv 11", (*faultModel).injectViewSrvStarvation},
		{"Phone.app 2", (*faultModel).injectPhoneAppAssert},
	}
	for _, tc := range cases {
		t.Run(tc.want, func(t *testing.T) {
			keys := forceInject(t, tc.inject)
			if len(keys) != 1 {
				t.Fatalf("captured %v, want exactly one %s", keys, tc.want)
			}
			if keys[0] != tc.want {
				t.Errorf("panic = %s, want %s", keys[0], tc.want)
			}
		})
	}
}

func TestInjectionCoversEveryTable2Row(t *testing.T) {
	// The profile table must cover all 20 Table 2 rows with weights that
	// sum to ~100 percentage points.
	eng := sim.NewEngine()
	d := NewDevice("cov", eng, DefaultConfig(1))
	d.Enroll(sim.Epoch)
	eng.Step()
	f := d.faults
	var total float64
	n := 0
	for _, set := range [][]faultProfile{f.anyP, f.callP, f.msgP} {
		for _, p := range set {
			total += p.weight
			n++
			if p.inject == nil {
				t.Errorf("%s has no injection", symbos.PanicKey(p.cat, p.typ))
			}
		}
	}
	if n != 20 {
		t.Errorf("profiles = %d, want 20 (Table 2 rows)", n)
	}
	if total < 99.5 || total > 100.5 {
		t.Errorf("weights sum to %.2f, want ~100", total)
	}
}

func TestPanicHandlerTerminatesVictimApp(t *testing.T) {
	keysSeen := forceInject(t, func(f *faultModel) {
		// Launch an app, make it the victim by injecting into it.
		f.d.LaunchApp(AppCamera)
		f.exec(f.d.apps[AppCamera], func(k *symbos.Kernel, th *symbos.Thread) {
			symbos.NullPtr(k).Deref()
		})
		if f.d.AppRunning(AppCamera) {
			t.Error("victim app survived its panic")
		}
	})
	if len(keysSeen) != 1 || keysSeen[0] != "KERN-EXEC 3" {
		t.Fatalf("keys = %v", keysSeen)
	}
}

func TestSystemServerPanicRebootsPhone(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(88)
	cfg.PanicOpportunityPerHour = 0
	cfg.SpontaneousFreezePerHour = 0
	cfg.SpontaneousShutdownPerHour = 0
	cfg.NightOffProb = 0
	cfg.DayOffPerHour = 0
	cfg.BurstProb = 0
	d := NewDevice("sysrv", eng, cfg)
	d.Enroll(sim.Epoch)
	eng.Step()
	// Panic inside a critical system server.
	srv := d.AppArchServer()
	d.Kernel().Exec(srv.Process().Main(), func() {
		symbos.NullPtr(d.Kernel()).Deref()
	})
	if err := eng.Run(eng.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.Oracle().Count(TruthSelfShutdown) != 1 {
		t.Errorf("system-server panic did not reboot the phone (self-shutdowns = %d)",
			d.Oracle().Count(TruthSelfShutdown))
	}
	if d.BootCount() != 2 {
		t.Errorf("BootCount = %d", d.BootCount())
	}
}

func TestBurstProducesMultiplePanics(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(99)
	cfg.PanicOpportunityPerHour = 0
	cfg.SpontaneousFreezePerHour = 0
	cfg.SpontaneousShutdownPerHour = 0
	cfg.NightOffProb = 0
	cfg.DayOffPerHour = 0
	cfg.BurstProb = 1 // force a cascade
	cfg.BurstContinue = 0
	d := NewDevice("burst", eng, cfg)
	d.Enroll(sim.Epoch)
	eng.Step()
	var keys []string
	d.Kernel().SubscribeRDebug(func(p *symbos.Panic) { keys = append(keys, p.Key()) })
	d.faults.trigger()
	if err := eng.Run(eng.Now().Add(10 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if len(keys) < 2 {
		t.Errorf("forced burst produced %d panics: %v", len(keys), keys)
	}
	// The oracle marks followers.
	followers := 0
	for _, p := range d.Oracle().Panics {
		if p.Burst {
			followers++
		}
	}
	if followers == 0 {
		t.Error("no follower marked in oracle")
	}
}

func TestOutputFailureHookFires(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(55)
	cfg.PanicOpportunityPerHour = 0
	cfg.SpontaneousFreezePerHour = 0
	cfg.SpontaneousShutdownPerHour = 0
	cfg.NightOffProb = 0
	cfg.DayOffPerHour = 0
	cfg.OutputFailurePerHour = 1 // one per hour on average
	d := NewDevice("output", eng, cfg)
	d.Enroll(sim.Epoch)
	eng.Step()
	var seen []OutputFailure
	d.RegisterOutputFailureHook(func(of OutputFailure) { seen = append(seen, of) })
	if err := eng.Run(eng.Now().Add(12 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no output failures in 12 h at rate 1/h")
	}
	truth := d.Oracle().Count(TruthOutputFailure)
	if truth < len(seen) {
		t.Errorf("oracle (%d) < hook count (%d)", truth, len(seen))
	}
	for _, of := range seen {
		if of.Detail == "" {
			t.Error("output failure without detail")
		}
		if !strings.Contains(strings.Join(outputFailureDetails, "|"), of.Detail) {
			t.Errorf("unknown detail %q", of.Detail)
		}
	}
}

func TestMsgsClientPanicAlwaysSelfShutdown(t *testing.T) {
	// MSGS Client and Phone.app panics correspond to core applications:
	// "the OS kernel always reboots the phone if any of these applications
	// fails" (section 6).
	for _, inject := range []func(*faultModel){
		(*faultModel).injectMsgsOverflow,
		(*faultModel).injectPhoneAppAssert,
	} {
		eng := sim.NewEngine()
		cfg := DefaultConfig(66)
		cfg.PanicOpportunityPerHour = 0
		cfg.SpontaneousFreezePerHour = 0
		cfg.SpontaneousShutdownPerHour = 0
		cfg.NightOffProb = 0
		cfg.DayOffPerHour = 0
		cfg.BurstProb = 0
		d := NewDevice("core-app", eng, cfg)
		d.Enroll(sim.Epoch)
		eng.Step()
		inject(d.faults)
		if err := eng.Run(eng.Now().Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if d.Oracle().Count(TruthSelfShutdown) != 1 {
			t.Errorf("core-application panic did not reboot (self-shutdowns = %d)",
				d.Oracle().Count(TruthSelfShutdown))
		}
	}
}
