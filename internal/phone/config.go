// Package phone models a Symbian smart phone of the study era as a
// discrete-event system: the device lifecycle (boots, shutdowns, freezes,
// battery), the firmware system servers, the stock applications, a
// stochastic user workload (voice calls, text messages, Bluetooth, camera,
// night power-offs, battery pulls), and a fault-injection model whose
// trigger rates are calibrated from the paper's Table 2 but whose
// manifestation goes through the real symbos code paths.
//
// A phone.Device is what the paper's logger (internal/core) is installed
// on; a phone.Fleet is the 25-phone deployment of section 6.
package phone

import (
	"sync"
	"time"

	"symfail/internal/sim"
)

// Activity identifies what the user is doing with the phone. The values
// mirror the activity classes of Tables 3 and 4 plus the additional
// workload classes the forum study mentions (section 4.1).
type Activity string

// Activity classes.
const (
	ActIdle      Activity = "idle"
	ActVoiceCall Activity = "voice-call"
	ActMessage   Activity = "message"
	ActBluetooth Activity = "bluetooth"
	ActCamera    Activity = "camera"
	ActNav       Activity = "navigation"
	ActBrowseFS  Activity = "file-browse"
	ActContacts  Activity = "contacts"
	ActClock     Activity = "clock"
	ActAudio     Activity = "audio"
)

// Config calibrates one simulated phone. The defaults reproduce the shape
// of the paper's findings; every knob is exposed so the benchmark harness
// can sweep them (ablations) and tests can pin them.
type Config struct {
	// Seed drives every random decision for the device.
	Seed uint64
	// OSVersion is the Symbian OS version the phone runs. The study's
	// phones ran versions 6.1 through 9.0, with 8.0 "the most popular on
	// the market at the time the analysis started" (section 6).
	OSVersion string
	// Persona records which user-heterogeneity profile shaped this config
	// (informational; set by ApplyPersona).
	Persona Persona

	// User workload --------------------------------------------------

	// ActivitiesPerDay is the mean number of user interactions per day;
	// individual activity classes are drawn from ActivityMix.
	ActivitiesPerDay float64
	// ActivityMix weighs the activity classes.
	ActivityMix map[Activity]float64
	// ActivityMedianDuration is the median duration per activity class;
	// durations are log-normal with ActivitySigma spread.
	ActivityMedianDuration map[Activity]time.Duration
	// ActivitySigma is the log-space spread of activity durations.
	ActivitySigma float64
	// LingerProb is the chance an application is left running in the
	// background after its activity ends (drives Figure 6's tail).
	LingerProb float64
	// WakeHour and SleepHour bound the user's waking day (hours 0-24).
	WakeHour, SleepHour float64
	// WeekendWakeDelayHours shifts the waking window later on weekends.
	WeekendWakeDelayHours float64
	// WeekendActivityFactor scales the activity rate on weekends (people
	// call less from the office chair, more from the couch).
	WeekendActivityFactor float64

	// Shutdown behaviour ----------------------------------------------

	// NightOffProb is the chance the user powers the phone off for the
	// night (producing the ~30000 s mode of Figure 2).
	NightOffProb float64
	// NightOffDuration and NightOffJitter shape the overnight off time.
	NightOffDuration, NightOffJitter time.Duration
	// DayOffPerHour is the rate of deliberate daytime power cycles.
	DayOffPerHour float64
	// DayOffMedian and DayOffSigma shape daytime off durations
	// (log-normal; the median keeps almost all of them above the 360 s
	// self-shutdown threshold, matching the paper's 4% contamination).
	DayOffMedian time.Duration
	DayOffSigma  float64
	// LoggerOffProb is the chance a daytime shutdown is preceded by the
	// user deliberately stopping the logger (a MAOFF record).
	LoggerOffProb float64

	// Self-shutdown and freeze dynamics --------------------------------

	// SelfShutdownOffMedian/Sigma shape the automatic reboot time after a
	// self-shutdown (the ~80 s mode of Figure 2).
	SelfShutdownOffMedian time.Duration
	SelfShutdownOffSigma  float64
	// FreezeImpatienceMedian/Sigma shape how long the user waits before
	// pulling the battery out of a frozen phone.
	FreezeImpatienceMedian time.Duration
	FreezeImpatienceSigma  float64
	// BatteryPullOffMedian/Sigma shape how long the phone stays off after
	// a battery pull.
	BatteryPullOffMedian time.Duration
	BatteryPullOffSigma  float64

	// Failure model ----------------------------------------------------

	// PanicOpportunityPerHour is the base hazard of a software defect
	// being triggered while the phone is idle; ActivityRisk multiplies it.
	PanicOpportunityPerHour float64
	// ActivityRisk multiplies the panic hazard per activity class. The
	// paper's observation that ~45% of panics happen during real-time
	// activities (voice calls, messaging) comes from these multipliers.
	ActivityRisk map[Activity]float64
	// CallOnlyBias is the chance that a defect triggered during a voice
	// call is one of the call-only classes (USER descriptor panics and
	// ViewSrv starvation — the paper's Table 3 observes these exclusively
	// during calls); MessageOnlyBias plays the same role for the
	// message-only classes (Phone.app).
	CallOnlyBias, MessageOnlyBias float64
	// BurstProb is the chance a primary panic propagates into a cascade
	// of follow-up panics (Figure 3: ~25% of panics arrive in bursts).
	BurstProb float64
	// BurstContinue is the chance each follow-up panic is itself followed
	// by another (geometric burst lengths).
	BurstContinue float64
	// BurstGap is the mean spacing of panics inside a burst.
	BurstGap time.Duration
	// SpontaneousFreezePerHour and SpontaneousShutdownPerHour are the
	// rates of freezes/self-shutdowns with no panic record — the causes
	// the logger cannot see (kernel-level lockups, drivers, hardware).
	SpontaneousFreezePerHour   float64
	SpontaneousShutdownPerHour float64
	// OutputFailurePerHour is the rate of value failures (wrong volume,
	// wrong reminder time, inaccurate charge indicator, ...). The base
	// logger cannot see them — automated detection would need a perfect
	// observer (section 5) — but the forum study finds them to be the
	// most frequent failure class, and the core.UserReporter extension
	// captures a user-reported subset.
	OutputFailurePerHour float64

	// Servicing ----------------------------------------------------------

	// ServiceFailureThreshold: when the user suffers this many failures
	// (freezes + self-shutdowns) within ServiceWindow, they take the
	// phone in for service with probability ServiceProb. Servicing means
	// a master reset — the flash is wiped, logger files included — plus a
	// firmware update that scales the failure rates by ServiceFixFactor.
	// Zero threshold disables servicing.
	ServiceFailureThreshold int
	ServiceWindow           time.Duration
	ServiceProb             float64
	// ServiceOffDuration is how long the phone is away at the shop.
	ServiceOffDuration time.Duration
	// ServiceFixFactor scales panic and spontaneous-failure rates after a
	// firmware update (1 = no effect).
	ServiceFixFactor float64

	// Battery ----------------------------------------------------------

	// BatteryDrainPerHour is the idle drain fraction per hour; activities
	// drain more.
	BatteryDrainPerHour float64
	// EveningChargeProb is the chance per day the user charges the phone
	// in the evening.
	EveningChargeProb float64
	// LowBatteryThreshold triggers a LOWBT shutdown.
	LowBatteryThreshold float64

	// Adversity ---------------------------------------------------------

	// Flash arms the flash fault model (torn writes on power loss, bit
	// rot, flash-full quota). The zero value keeps the flash perfect and
	// leaves every RNG stream untouched, so pre-adversity runs reproduce
	// bit for bit.
	Flash FlashFaults

	// Logger-visible plumbing -------------------------------------------

	// HeartbeatPeriod is how often the logger's Heartbeat AO writes an
	// ALIVE record (tunable; the ablation bench sweeps it).
	HeartbeatPeriod time.Duration
	// RunAppSamplePeriod is how often the Running Applications Detector
	// samples the Application Architecture Server.
	RunAppSamplePeriod time.Duration
}

// defaultCalibration holds the activity tables shared by every Config
// that DefaultConfig returns. Three per-device maps cost ~1.4KB each at
// fleet scale (and GC mark work proportional to it), yet their contents
// are identical for every phone, so they are built once and aliased.
// The maps are read-only by contract: code that wants a per-device
// variant must replace the map, never write through it — ApplyPersona
// clones ActivityMix before scaling it for exactly this reason.
var defaultCalibration struct {
	once   sync.Once
	mix    map[Activity]float64
	median map[Activity]time.Duration
	risk   map[Activity]float64
}

func defaultTables() (map[Activity]float64, map[Activity]time.Duration, map[Activity]float64) {
	c := &defaultCalibration
	c.once.Do(func() {
		c.mix = map[Activity]float64{
			ActVoiceCall: 6,
			ActMessage:   7,
			ActContacts:  2,
			ActCamera:    0.8,
			ActBluetooth: 0.5,
			ActNav:       0.25,
			ActBrowseFS:  0.35,
			ActClock:     0.8,
			ActAudio:     0.3,
		}
		c.median = map[Activity]time.Duration{
			ActVoiceCall: 2 * time.Minute,
			ActMessage:   50 * time.Second,
			ActContacts:  25 * time.Second,
			ActCamera:    90 * time.Second,
			ActBluetooth: 3 * time.Minute,
			ActNav:       12 * time.Minute,
			ActBrowseFS:  70 * time.Second,
			ActClock:     15 * time.Second,
			ActAudio:     4 * time.Minute,
		}
		c.risk = map[Activity]float64{
			ActIdle:      1,
			ActVoiceCall: 80,
			ActMessage:   28,
			ActBluetooth: 14,
			ActCamera:    12,
			ActNav:       8,
			ActBrowseFS:  6,
			ActContacts:  4,
			ActClock:     3,
			ActAudio:     8,
		}
	})
	return c.mix, c.median, c.risk
}

// DefaultConfig returns the calibration used for the headline reproduction.
//
// The activity maps in the returned Config are shared, immutable tables;
// to customise one, assign a fresh map rather than mutating in place.
func DefaultConfig(seed uint64) Config {
	mix, median, risk := defaultTables()
	return Config{
		Seed:      seed,
		OSVersion: "8.0",

		ActivitiesPerDay:       18,
		ActivityMix:            mix,
		ActivityMedianDuration: median,
		ActivitySigma:          0.7,
		LingerProb:             0.12,
		WakeHour:               7,
		SleepHour:              23.25,
		WeekendWakeDelayHours:  1.5,
		WeekendActivityFactor:  0.8,

		NightOffProb:     0.16,
		NightOffDuration: 30000 * time.Second,
		NightOffJitter:   70 * time.Minute,
		DayOffPerHour:    1.0 / 150,
		DayOffMedian:     25 * time.Minute,
		DayOffSigma:      0.8,
		LoggerOffProb:    0.02,

		SelfShutdownOffMedian: 80 * time.Second,
		SelfShutdownOffSigma:  0.35,

		FreezeImpatienceMedian: 3 * time.Minute,
		FreezeImpatienceSigma:  0.8,
		BatteryPullOffMedian:   4 * time.Minute,
		BatteryPullOffSigma:    0.7,

		PanicOpportunityPerHour: 1.0 / 700,
		ActivityRisk:            risk,
		CallOnlyBias:            0.26,
		MessageOnlyBias:         0.04,
		BurstProb:               0.13,
		BurstContinue:           0.40,
		BurstGap:                20 * time.Second,

		SpontaneousFreezePerHour:   1.0 / 425,
		SpontaneousShutdownPerHour: 1.0 / 268,
		// The forum study sees output failures ~1.4x as often as freezes;
		// scale the freeze rate accordingly.
		OutputFailurePerHour: 1.4 / 440,

		ServiceFailureThreshold: 6,
		ServiceWindow:           14 * 24 * time.Hour,
		ServiceProb:             0.15,
		ServiceOffDuration:      48 * time.Hour,
		ServiceFixFactor:        0.88,

		BatteryDrainPerHour: 0.013,
		EveningChargeProb:   0.8,
		LowBatteryThreshold: 0.03,

		HeartbeatPeriod:    5 * time.Minute,
		RunAppSamplePeriod: 10 * time.Minute,
	}
}

// riskMax returns the largest activity risk multiplier (for thinning).
func (c *Config) riskMax() float64 {
	max := 1.0
	for _, v := range c.ActivityRisk {
		if v > max {
			max = v
		}
	}
	return max
}

// risk returns the hazard multiplier for an activity.
func (c *Config) risk(a Activity) float64 {
	if v, ok := c.ActivityRisk[a]; ok {
		return v
	}
	return 1
}

// StudyMonth approximates one month of wall-clock study time.
const StudyMonth = 30 * 24 * time.Hour

// StudyDuration is the paper's observation window: 14 months.
const StudyDuration = 14 * StudyMonth

var _ = sim.Epoch
