package phone

import (
	"time"

	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// meanInterval converts an hourly rate into a mean inter-arrival duration.
// Tiny rates would overflow time.Duration (int64 nanoseconds caps at ~292
// years); anything rarer than once per ~114 years is "never" within a
// study, reported as ok=false.
func meanInterval(ratePerHour float64) (time.Duration, bool) {
	if ratePerHour <= 0 {
		return 0, false
	}
	hours := 1 / ratePerHour
	const maxHours = 1e6
	if hours > maxHours {
		return 0, false
	}
	return time.Duration(hours * float64(time.Hour)), true
}

// startWorkload schedules everything that happens while the phone is on:
// user activities, the nightly power-off decision, deliberate daytime power
// cycles, battery drain, spontaneous failures and panic opportunities.
// Every scheduled callback is guarded by the boot generation so that events
// queued before a shutdown are inert afterwards.
func (d *Device) startWorkload() {
	w := d.newWorkload()
	d.work = w

	w.scheduleNextActivity()
	w.scheduleNightCheck()
	w.scheduleDayOff()
	w.scheduleEveningCharge()
	w.scheduleBatteryTick()
	w.scheduleSpontaneous(true)
	w.scheduleSpontaneous(false)
	w.scheduleOutputFailures()
	w.schedulePanicOpportunity()
}

// workload is one boot generation's workload. Its events re-arm
// themselves many times a day, so each callback is built once per boot,
// here, never at an arm; each checks first that its generation is still
// live, so the callbacks of an earlier boot stay inert.
type workload struct {
	d   *Device
	gen int

	// The activity whose end is queued. At most one is pending in a live
	// generation: a new activity starts only once the previous one has
	// finished, and a power-down ends the generation.
	endToken int
	endAct   Activity

	activity, activityEnd, night, dayOff, charge, battery func()
	freeze, shutdown, outputFailure, panicOp              func()
}

func (d *Device) newWorkload() *workload {
	w := &workload{d: d, gen: d.bootGen}
	w.activity = w.onActivity
	w.activityEnd = w.onActivityEnd
	w.night = w.onNight
	w.dayOff = w.onDayOff
	w.charge = w.onCharge
	w.battery = w.onBattery
	w.freeze = func() { w.onSpontaneous(true) }
	w.shutdown = func() { w.onSpontaneous(false) }
	w.outputFailure = w.onOutputFailure
	w.panicOp = w.onPanicOpportunity
	return w
}

// live reports whether the workload's boot generation is still running.
func (w *workload) live() bool { return w.d.live(w.gen) }

// live reports whether a callback scheduled in boot generation gen should
// still run.
func (d *Device) live(gen int) bool {
	return d.state == StateOn && d.bootGen == gen && !d.finalized
}

// weekend reports whether the current simulated day is a weekend day
// (days 5 and 6 of each 7-day week).
func (d *Device) weekend() bool {
	dow := d.eng.Now().Day() % 7
	return dow == 5 || dow == 6
}

// wakeHour returns today's wake hour (weekends start later).
func (d *Device) wakeHour() float64 {
	if d.weekend() {
		return d.cfg.WakeHour + d.cfg.WeekendWakeDelayHours
	}
	return d.cfg.WakeHour
}

// awake reports whether the user is in their waking window.
func (d *Device) awake() bool {
	h := d.eng.Now().TimeOfDay().Hours()
	return h >= d.wakeHour() && h < d.cfg.SleepHour
}

// untilWake returns the delay to the next waking window start.
func (d *Device) untilWake() time.Duration {
	tod := d.eng.Now().TimeOfDay()
	wake := time.Duration(d.wakeHour() * float64(time.Hour))
	if tod < wake {
		return wake - tod
	}
	return 24*time.Hour - tod + wake
}

// User activities ------------------------------------------------------

func (w *workload) scheduleNextActivity() {
	d := w.d
	wakingHours := d.cfg.SleepHour - d.cfg.WakeHour
	rate := d.cfg.ActivitiesPerDay
	if d.weekend() && d.cfg.WeekendActivityFactor > 0 {
		rate *= d.cfg.WeekendActivityFactor
	}
	meanGap := time.Duration(wakingHours / rate * float64(time.Hour))
	delay := d.rng.ExpDuration(meanGap)
	if !d.awake() {
		delay = d.untilWake() + d.rng.ExpDuration(meanGap/2)
	}
	d.eng.After(delay, w.activity)
}

func (w *workload) onActivity() {
	if !w.live() {
		return
	}
	d := w.d
	if d.awake() && d.currentActivity == ActIdle {
		d.beginActivity(d.pickActivity())
	}
	w.scheduleNextActivity()
}

// pickActivity draws an activity class from the configured mix.
func (d *Device) pickActivity() Activity {
	if d.mixKinds == nil {
		d.buildMix()
	}
	idx := d.rng.WeightedIndex(d.mixWeights)
	if idx < 0 {
		return ActIdle
	}
	return d.mixKinds[idx]
}

// buildMix tabulates the activity mix for pickActivity, at the device's
// first pick: the classes with a positive weight, in allActivities order
// (deterministic, unlike the map's).
func (d *Device) buildMix() {
	d.mixKinds = make([]Activity, 0, len(d.cfg.ActivityMix))
	for _, a := range allActivities {
		if w, ok := d.cfg.ActivityMix[a]; ok && w > 0 {
			d.mixKinds = append(d.mixKinds, a)
			d.mixWeights = append(d.mixWeights, w)
		}
	}
}

// allActivities fixes the iteration order over activity classes.
var allActivities = []Activity{
	ActVoiceCall, ActMessage, ActContacts, ActCamera, ActBluetooth,
	ActNav, ActBrowseFS, ActClock, ActAudio,
}

// beginActivity opens the activity's applications, exercises their healthy
// code paths, and schedules the end of the activity.
func (d *Device) beginActivity(act Activity) {
	d.currentActivity = act
	d.activityToken++
	w := d.work
	w.endToken, w.endAct = d.activityToken, act
	apps := activityApps[act]
	// The foreground application always opens; companion applications
	// (e.g. the call Log next to Telephone) only sometimes — on a real
	// phone the user does not open the log for every call. This keeps the
	// mode of Figure 6 at one application.
	d.LaunchApp(apps[0])
	for _, name := range apps[1:] {
		if d.rng.Bool(0.32) {
			d.LaunchApp(name)
		}
	}
	// Only voice calls and messages are registered on the Symbian
	// Database Log Server (Table 3: "the only ones registered").
	if act == ActVoiceCall || act == ActMessage {
		d.recordActivityStart(act)
	}
	if act == ActVoiceCall {
		d.props.Set(symbos.PropCallState, 1)
	}
	if a := d.apps[apps[0]]; a != nil && a.Alive() {
		a.perform(act)
	}
	// Battery: activities drain extra charge.
	d.battery -= 0.002
	median := d.cfg.ActivityMedianDuration[act]
	if median <= 0 {
		median = time.Minute
	}
	dur := d.rng.LogNormalDuration(median, d.cfg.ActivitySigma)
	d.eng.After(dur, w.activityEnd)
}

func (w *workload) onActivityEnd() {
	if !w.live() || w.d.activityToken != w.endToken {
		return
	}
	w.d.finishActivity(w.endAct)
}

// finishActivity closes the database-log record and the activity's
// applications (each may linger in the background).
func (d *Device) finishActivity(act Activity) {
	if act == ActVoiceCall || act == ActMessage {
		d.recordActivityEnd(act)
	}
	if act == ActVoiceCall {
		d.props.Set(symbos.PropCallState, 0)
	}
	for _, name := range activityApps[act] {
		if !d.rng.Bool(d.cfg.LingerProb) {
			d.CloseApp(name)
		}
	}
	d.currentActivity = ActIdle
}

// endCurrentActivity force-closes the activity record on power loss.
func (d *Device) endCurrentActivity() {
	if d.currentActivity == ActVoiceCall || d.currentActivity == ActMessage {
		d.recordActivityEnd(d.currentActivity)
	}
	d.currentActivity = ActIdle
	d.activityToken++
}

// Night and day power cycles -------------------------------------------

func (w *workload) scheduleNightCheck() {
	d := w.d
	tod := d.eng.Now().TimeOfDay()
	sleep := time.Duration(d.cfg.SleepHour * float64(time.Hour))
	delay := sleep - tod
	if delay <= 0 {
		delay += 24 * time.Hour
	}
	delay += d.rng.ExpDuration(10 * time.Minute)
	d.eng.After(delay, w.night)
}

func (w *workload) onNight() {
	if !w.live() {
		return
	}
	d := w.d
	if d.rng.Bool(d.cfg.NightOffProb) {
		off := d.cfg.NightOffDuration +
			time.Duration(d.rng.Norm(0, float64(d.cfg.NightOffJitter)))
		if off < time.Hour {
			off = time.Hour
		}
		d.oracle.record(TruthUserShutdown, d.eng.Now(), "night", d.currentActivity)
		d.Shutdown(ReasonUser, off)
		return
	}
	w.scheduleNightCheck()
}

func (w *workload) scheduleDayOff() {
	d := w.d
	mean, ok := meanInterval(d.cfg.DayOffPerHour)
	if !ok {
		return
	}
	d.eng.After(d.rng.ExpDuration(mean), w.dayOff)
}

func (w *workload) onDayOff() {
	if !w.live() {
		return
	}
	d := w.d
	if !d.awake() {
		w.scheduleDayOff()
		return
	}
	off := d.rng.LogNormalDuration(d.cfg.DayOffMedian, d.cfg.DayOffSigma)
	if d.rng.Bool(d.cfg.LoggerOffProb) {
		d.oracle.record(TruthLoggerOff, d.eng.Now(), "user stopped logger", d.currentActivity)
		d.Shutdown(ReasonLoggerOff, off)
		return
	}
	d.oracle.record(TruthUserShutdown, d.eng.Now(), "day", d.currentActivity)
	d.Shutdown(ReasonUser, off)
}

// Battery ----------------------------------------------------------------

func (w *workload) scheduleEveningCharge() {
	d := w.d
	tod := d.eng.Now().TimeOfDay()
	evening := 21 * time.Hour
	delay := evening - tod
	if delay <= 0 {
		delay += 24 * time.Hour
	}
	d.eng.After(delay, w.charge)
}

func (w *workload) onCharge() {
	if !w.live() {
		return
	}
	d := w.d
	if d.rng.Bool(d.cfg.EveningChargeProb) {
		d.battery = 1
		d.publishBattery()
	}
	w.scheduleEveningCharge()
}

func (w *workload) scheduleBatteryTick() {
	w.d.eng.After(time.Hour, w.battery)
}

func (w *workload) onBattery() {
	if !w.live() {
		return
	}
	d := w.d
	d.battery -= d.cfg.BatteryDrainPerHour
	d.publishBattery()
	if d.battery <= d.cfg.LowBatteryThreshold {
		d.battery = 0
		d.oracle.record(TruthLowBattery, d.eng.Now(), "battery exhausted", d.currentActivity)
		// Half the time the user notices quickly and charges; the
		// other half the phone stays off until the next morning.
		var off time.Duration
		if d.rng.Bool(0.5) {
			off = d.rng.LogNormalDuration(90*time.Minute, 0.5)
		} else {
			off = d.untilWake() + d.rng.ExpDuration(30*time.Minute)
		}
		d.battery = 1 // charged while off
		d.Shutdown(ReasonLowBattery, off)
		return
	}
	w.scheduleBatteryTick()
}

// Failures ----------------------------------------------------------------

// scheduleSpontaneous drives the freezes/self-shutdowns that happen with no
// panic record — causes the logger cannot observe.
func (w *workload) scheduleSpontaneous(freeze bool) {
	d := w.d
	rate := d.cfg.SpontaneousShutdownPerHour
	if freeze {
		rate = d.cfg.SpontaneousFreezePerHour
	}
	mean, ok := meanInterval(rate)
	if !ok {
		return
	}
	fire := w.shutdown
	if freeze {
		fire = w.freeze
	}
	d.eng.After(d.rng.ExpDuration(mean), fire)
}

func (w *workload) onSpontaneous(freeze bool) {
	if !w.live() {
		return
	}
	if freeze {
		w.d.Freeze("spontaneous")
	} else {
		w.d.SelfShutdown("spontaneous")
	}
}

// outputFailureDetails are the value-failure manifestations the forum
// study quotes (section 4: "inaccuracy in charge indicator, ring or music
// volume different from the configured one, and event reminders going off
// at wrong times").
var outputFailureDetails = []string{
	"inaccurate charge indicator",
	"ring volume different from configured",
	"event reminder at the wrong time",
	"wallpaper reset to default",
	"wrong ringtone played",
}

// scheduleOutputFailures drives user-visible value failures. They do not
// stop the phone; they fire the output-failure hooks so optional observers
// (core.UserReporter) can model user-driven reporting.
func (w *workload) scheduleOutputFailures() {
	d := w.d
	mean, ok := meanInterval(d.cfg.OutputFailurePerHour)
	if !ok {
		return
	}
	d.eng.After(d.rng.ExpDuration(mean), w.outputFailure)
}

func (w *workload) onOutputFailure() {
	if !w.live() {
		return
	}
	d := w.d
	of := OutputFailure{
		Time:     d.eng.Now(),
		Detail:   outputFailureDetails[d.rng.Intn(len(outputFailureDetails))],
		Activity: d.currentActivity,
	}
	d.oracle.record(TruthOutputFailure, of.Time, of.Detail, of.Activity)
	for _, fn := range d.outputHooks {
		fn(of)
	}
	w.scheduleOutputFailures()
}

// schedulePanicOpportunity drives the fault model: defect-trigger
// opportunities arrive as a Poisson process whose intensity is modulated by
// the current activity's risk multiplier (thinning).
func (w *workload) schedulePanicOpportunity() {
	d := w.d
	maxRate := d.cfg.PanicOpportunityPerHour * d.cfg.riskMax()
	mean, ok := meanInterval(maxRate)
	if !ok {
		return
	}
	d.eng.After(d.rng.ExpDuration(mean), w.panicOp)
}

func (w *workload) onPanicOpportunity() {
	if !w.live() {
		return
	}
	d := w.d
	accept := d.cfg.risk(d.currentActivity) / d.cfg.riskMax()
	if d.rng.Bool(accept) {
		d.faults.trigger()
	}
	w.schedulePanicOpportunity()
}

var _ = sim.Epoch
