package phone

import (
	"testing"
	"time"

	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// newTestDevice enrols a single device at Epoch and returns it with its
// engine.
func newTestDevice(t *testing.T, seed uint64, mutate func(*Config)) (*Device, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(seed)
	if mutate != nil {
		mutate(&cfg)
	}
	d := NewDevice("phone-test", eng, cfg)
	d.Enroll(sim.Epoch)
	return d, eng
}

func TestDeviceBootsOnEnroll(t *testing.T) {
	d, eng := newTestDevice(t, 1, nil)
	if d.State() != StateOff {
		t.Fatal("device should be off before the engine runs")
	}
	eng.Step() // the enrol boot event
	if d.State() != StateOn {
		t.Fatalf("state = %v after boot", d.State())
	}
	if d.BootCount() != 1 {
		t.Errorf("BootCount = %d", d.BootCount())
	}
	if d.Kernel() == nil || d.Kernel().Halted() {
		t.Error("kernel not running after boot")
	}
	if d.AppArchServer() == nil || d.DBLogServer() == nil ||
		d.SysAgentServer() == nil || d.MessageServer() == nil {
		t.Error("system servers missing")
	}
}

func TestDeviceRunsOneDay(t *testing.T) {
	d, eng := newTestDevice(t, 2, nil)
	if err := eng.Run(sim.Epoch.Add(24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.Oracle().Count(TruthBoot) < 1 {
		t.Error("no boots recorded")
	}
	d.Finalize()
	if d.Oracle().ObservedHours <= 0 {
		t.Error("no observed hours accounted")
	}
}

func TestShutdownInvokesHooksAndReboots(t *testing.T) {
	d, eng := newTestDevice(t, 3, nil)
	eng.Step() // boot
	var reasons []ShutdownReason
	d.RegisterShutdownHook(func(r ShutdownReason) { reasons = append(reasons, r) })
	d.Shutdown(ReasonUser, 10*time.Minute)
	if d.State() != StateOff {
		t.Fatalf("state = %v after shutdown", d.State())
	}
	if len(reasons) != 1 || reasons[0] != ReasonUser {
		t.Errorf("hook reasons = %v", reasons)
	}
	if err := eng.Run(eng.Now().Add(11 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if d.State() != StateOn || d.BootCount() != 2 {
		t.Errorf("device did not reboot: state=%v boots=%d", d.State(), d.BootCount())
	}
}

func TestShutdownHooksAreClearedAcrossBoots(t *testing.T) {
	d, eng := newTestDevice(t, 4, nil)
	eng.Step()
	calls := 0
	d.RegisterShutdownHook(func(ShutdownReason) { calls++ })
	d.Shutdown(ReasonUser, time.Minute)
	if err := eng.Run(eng.Now().Add(2 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	d.Shutdown(ReasonUser, time.Minute)
	if calls != 1 {
		t.Errorf("hook ran %d times; per-boot hooks must not survive a reboot", calls)
	}
}

func TestFreezeHaltsKernelThenBatteryPullReboots(t *testing.T) {
	d, eng := newTestDevice(t, 5, nil)
	eng.Step()
	d.Freeze("test")
	if d.State() != StateFrozen {
		t.Fatalf("state = %v", d.State())
	}
	if !d.Kernel().Halted() {
		t.Error("kernel still running during freeze")
	}
	if err := eng.Run(eng.Now().Add(4 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.State() != StateOn {
		t.Fatalf("device did not come back after battery pull: %v", d.State())
	}
	if d.Oracle().Count(TruthFreeze) != 1 || d.Oracle().Count(TruthBatteryPull) != 1 {
		t.Errorf("oracle freeze/pull = %d/%d",
			d.Oracle().Count(TruthFreeze), d.Oracle().Count(TruthBatteryPull))
	}
}

func TestFreezeBypassesShutdownHooks(t *testing.T) {
	d, eng := newTestDevice(t, 6, nil)
	eng.Step()
	called := false
	d.RegisterShutdownHook(func(ShutdownReason) { called = true })
	d.Freeze("test")
	if called {
		t.Error("freeze must not give applications a chance to run hooks")
	}
}

func TestSelfShutdownRecordsTruthAndRebootsQuickly(t *testing.T) {
	d, eng := newTestDevice(t, 7, nil)
	eng.Step()
	before := eng.Now()
	d.SelfShutdown("test")
	if d.Oracle().Count(TruthSelfShutdown) != 1 {
		t.Fatal("self-shutdown not recorded")
	}
	if err := eng.Run(before.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.BootCount() != 2 {
		t.Fatalf("BootCount = %d", d.BootCount())
	}
	// The reboot should be quick (the ~80 s mode of Figure 2): find the
	// second boot time.
	var boots []sim.Time
	for _, e := range d.Oracle().Events {
		if e.Kind == TruthBoot {
			boots = append(boots, e.Time)
		}
	}
	off := boots[1].Sub(before)
	if off > 10*time.Minute {
		t.Errorf("self-shutdown off time = %v, expected minutes at most", off)
	}
}

func TestLaunchAndCloseApps(t *testing.T) {
	d, eng := newTestDevice(t, 8, nil)
	eng.Step()
	a := d.LaunchApp(AppCamera)
	if !a.Alive() || a.Name() != AppCamera {
		t.Fatal("camera app not running")
	}
	if again := d.LaunchApp(AppCamera); again != a {
		t.Error("LaunchApp should return the running instance")
	}
	if !d.AppRunning(AppCamera) {
		t.Error("AppRunning false for running app")
	}
	apps := d.RunningApps()
	if len(apps) != 1 || apps[0] != AppCamera {
		t.Errorf("RunningApps = %v", apps)
	}
	d.CloseApp(AppCamera)
	if d.AppRunning(AppCamera) {
		t.Error("camera still running after close")
	}
	if len(d.RunningApps()) != 0 {
		t.Errorf("RunningApps = %v after close", d.RunningApps())
	}
}

func TestShellAppIsInvisible(t *testing.T) {
	d, eng := newTestDevice(t, 9, nil)
	eng.Step()
	sh := d.shellApp()
	if !sh.Alive() {
		t.Fatal("shell not running")
	}
	if len(d.RunningApps()) != 0 {
		t.Errorf("shell leaked into RunningApps: %v", d.RunningApps())
	}
}

func TestRelaunchAfterPanicTermination(t *testing.T) {
	d, eng := newTestDevice(t, 10, nil)
	eng.Step()
	a := d.LaunchApp(AppMessages)
	d.Kernel().Exec(a.Proc().Main(), func() {
		symbos.NullPtr(d.Kernel()).Deref()
	})
	if a.Alive() {
		t.Fatal("app should have been terminated by the panic policy")
	}
	b := d.LaunchApp(AppMessages)
	if !b.Alive() || b == a {
		t.Error("relaunch after termination failed")
	}
}

func TestAppArchServerListsApps(t *testing.T) {
	d, eng := newTestDevice(t, 11, nil)
	eng.Step()
	d.LaunchApp(AppClock)
	d.LaunchApp(AppCamera)
	client := d.Kernel().StartProcess("TestClient", false)
	sess := d.AppArchServer().Connect(client.Main())
	var resp []byte
	var code int
	d.Kernel().Exec(client.Main(), func() {
		resp, code = sess.Query(OpListApps, "")
	})
	if code != symbos.KErrNone {
		t.Fatalf("code = %d", code)
	}
	if string(resp) != "Camera,Clock" {
		t.Errorf("resp = %q", resp)
	}
}

func TestSysAgentReportsBattery(t *testing.T) {
	d, eng := newTestDevice(t, 12, nil)
	eng.Step()
	client := d.Kernel().StartProcess("TestClient", false)
	sess := d.SysAgentServer().Connect(client.Main())
	var resp []byte
	d.Kernel().Exec(client.Main(), func() {
		resp, _ = sess.Query(OpBatteryStatus, "")
	})
	if len(resp) < 2 || string(resp[:2]) != "ok" {
		t.Errorf("battery resp = %q", resp)
	}
	d.battery = 0.01
	d.Kernel().Exec(client.Main(), func() {
		resp, _ = sess.Query(OpBatteryStatus, "")
	})
	if len(resp) < 3 || string(resp[:3]) != "low" {
		t.Errorf("low battery resp = %q", resp)
	}
}

func TestDBLogRecordsOnlyCallsAndMessages(t *testing.T) {
	d, eng := newTestDevice(t, 13, nil)
	eng.Step()
	d.beginActivity(ActCamera)
	d.finishActivity(ActCamera)
	d.beginActivity(ActVoiceCall)
	d.finishActivity(ActVoiceCall)
	recs := d.recentActivity(10)
	if len(recs) != 1 || recs[0].Kind != ActVoiceCall {
		t.Errorf("activity log = %v", recs)
	}
	if recs[0].Ongoing() {
		t.Error("finished call still marked ongoing")
	}
}

func TestActivityEncodingRoundTrip(t *testing.T) {
	recs := []ActivityRecord{
		{Kind: ActVoiceCall, Start: 1000, End: 2000},
		{Kind: ActMessage, Start: 3000, End: sim.Never},
	}
	got := DecodeActivity(encodeActivity(recs))
	if len(got) != 2 {
		t.Fatalf("decoded %d records", len(got))
	}
	if got[0] != recs[0] || got[1] != recs[1] {
		t.Errorf("round trip: %v != %v", got, recs)
	}
	if !got[1].Ongoing() {
		t.Error("ongoing flag lost")
	}
	if DecodeActivity("") != nil {
		t.Error("empty string should decode to nil")
	}
	if got := DecodeActivity("garbage;;also@bad;x@1:z"); len(got) != 0 {
		t.Errorf("garbage decoded to %v", got)
	}
}

func TestDeviceStateString(t *testing.T) {
	if StateOn.String() != "on" || StateOff.String() != "off" || StateFrozen.String() != "frozen" {
		t.Error("state strings wrong")
	}
	if DeviceState(99).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestFinalizeStopsDevice(t *testing.T) {
	d, eng := newTestDevice(t, 14, nil)
	eng.Step()
	d.Finalize()
	if d.State() != StateOff {
		t.Error("device still on after Finalize")
	}
	hours := d.Oracle().ObservedHours
	d.Finalize() // idempotent
	if d.Oracle().ObservedHours != hours {
		t.Error("double Finalize double-counted uptime")
	}
	// Pending boot events must not revive it.
	if err := eng.Run(eng.Now().Add(48 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.State() != StateOff {
		t.Error("finalized device rebooted")
	}
}

func TestFSBasics(t *testing.T) {
	fs := NewFS()
	fs.Write("a/b", []byte("one"))
	fs.Append("a/b", []byte("two"))
	data, ok := fs.Read("a/b")
	if !ok || string(data) != "onetwo" {
		t.Fatalf("read = %q ok=%v", data, ok)
	}
	data[0] = 'X' // must not corrupt the stored file
	if again, _ := fs.Read("a/b"); string(again) != "onetwo" {
		t.Error("Read returned an aliased slice")
	}
	if fs.Size("a/b") != 6 || fs.TotalSize() != 6 {
		t.Error("sizes wrong")
	}
	if !fs.Exists("a/b") || fs.Exists("nope") {
		t.Error("Exists wrong")
	}
	fs.Write("z", []byte("1"))
	if l := fs.List(); len(l) != 2 || l[0] != "a/b" || l[1] != "z" {
		t.Errorf("List = %v", l)
	}
	if fs.Writes() != 3 {
		t.Errorf("Writes = %d", fs.Writes())
	}
	fs.Delete("z")
	fs.Delete("z") // idempotent
	if fs.Exists("z") {
		t.Error("Delete failed")
	}
	fs.MasterReset()
	if fs.TotalSize() != 0 || len(fs.List()) != 0 {
		t.Error("MasterReset left data behind")
	}
}

func TestServiceVisitWipesFlashAndReducesRates(t *testing.T) {
	d, eng := newTestDevice(t, 15, func(c *Config) {
		c.PanicOpportunityPerHour = 0
		// Tiny but nonzero, so the firmware-update scaling is observable
		// without the rate ever actually firing.
		c.SpontaneousFreezePerHour = 1e-9
		c.SpontaneousShutdownPerHour = 0
		c.OutputFailurePerHour = 0
		c.NightOffProb = 0
		c.DayOffPerHour = 0
		c.ServiceFailureThreshold = 3
		c.ServiceProb = 1
		c.ServiceWindow = 14 * 24 * time.Hour
	})
	eng.Step() // boot
	d.FS().Write("logs/logfile", []byte("precious log data"))
	beforeFreeze := d.Config().SpontaneousFreezePerHour

	// Three failures in quick succession trip the service decision.
	for i := 0; i < 3; i++ {
		d.SelfShutdown("test")
		if err := eng.Run(eng.Now().Add(30 * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	// The visit is scheduled within ~a day; run long enough.
	if err := eng.Run(eng.Now().Add(7 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.ServiceVisits() != 1 {
		t.Fatalf("service visits = %d", d.ServiceVisits())
	}
	if d.Oracle().Count(TruthServiceVisit) != 1 {
		t.Error("oracle missing the service visit")
	}
	if d.FS().Exists("logs/logfile") {
		// The logger reinstalls its files after the post-service boot, but
		// the pre-service content must be gone. Since no logger is
		// installed on this bare device, the file must simply not exist.
		t.Error("master reset did not wipe the flash")
	}
	if got := d.Config().SpontaneousFreezePerHour; got >= beforeFreeze {
		t.Errorf("firmware update did not reduce rates: %v >= %v", got, beforeFreeze)
	}
	if d.State() != StateOn {
		t.Errorf("phone did not come back from service: %v", d.State())
	}
}

func TestServiceVisitDisabledByZeroThreshold(t *testing.T) {
	d, eng := newTestDevice(t, 16, func(c *Config) {
		c.PanicOpportunityPerHour = 0
		c.SpontaneousFreezePerHour = 0
		c.SpontaneousShutdownPerHour = 0
		c.OutputFailurePerHour = 0
		c.NightOffProb = 0
		c.DayOffPerHour = 0
		c.ServiceFailureThreshold = 0
		c.ServiceProb = 1
	})
	eng.Step()
	for i := 0; i < 10; i++ {
		d.SelfShutdown("test")
		if err := eng.Run(eng.Now().Add(30 * time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(eng.Now().Add(7 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if d.ServiceVisits() != 0 {
		t.Errorf("service visits = %d with servicing disabled", d.ServiceVisits())
	}
}
