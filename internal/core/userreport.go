package core

import (
	"time"

	"symfail/internal/phone"
	"symfail/internal/sim"
)

// UserReporter is the paper's future-work extension (section 7): capturing
// output failures — value failures the logger cannot detect automatically —
// by involving the user. Section 5 explains why the authors did not rely on
// it for the main study: "users are quite unreliable and often neglect or
// forget to post the required information, thus biasing the results". This
// extension implements exactly that unreliable channel, with the
// unreliability modelled explicitly so its bias can be measured against the
// simulator's oracle (see ReportingCoverage).
//
// Model: when the device misbehaves in a user-visible way, the user notices
// with probability NoticeProb; a noticed failure is reported with
// probability ReportProb after a procrastination delay; if the phone is off
// (or frozen) when the user gets around to it, the report is lost.
type UserReporter struct {
	dev *phone.Device
	cfg UserReporterConfig
	rng *sim.Rand

	noticed int
	lost    int
}

// UserReporterConfig tunes the user model.
type UserReporterConfig struct {
	// NoticeProb is the chance the user notices a value failure at all.
	NoticeProb float64
	// ReportProb is the chance a noticed failure is eventually reported.
	ReportProb float64
	// ReportDelayMedian/Sigma shape the log-normal procrastination delay
	// between noticing and reporting.
	ReportDelayMedian time.Duration
	ReportDelaySigma  float64
	// LogPath is where user reports are appended (default: the logger's
	// consolidated Log File).
	LogPath string
}

// DefaultUserReporterConfig reflects the paper's experience with
// user-driven collection: most failures are noticed, barely half of the
// noticed ones ever get written down, and not promptly.
func DefaultUserReporterConfig() UserReporterConfig {
	return UserReporterConfig{
		NoticeProb:        0.8,
		ReportProb:        0.45,
		ReportDelayMedian: 40 * time.Minute,
		ReportDelaySigma:  1.0,
		LogPath:           DefaultLogPath,
	}
}

func (c UserReporterConfig) withDefaults() UserReporterConfig {
	d := DefaultUserReporterConfig()
	if c.NoticeProb <= 0 {
		c.NoticeProb = d.NoticeProb
	}
	if c.ReportProb <= 0 {
		c.ReportProb = d.ReportProb
	}
	if c.ReportDelayMedian <= 0 {
		c.ReportDelayMedian = d.ReportDelayMedian
	}
	if c.ReportDelaySigma <= 0 {
		c.ReportDelaySigma = d.ReportDelaySigma
	}
	if c.LogPath == "" {
		c.LogPath = d.LogPath
	}
	return c
}

// KindUserReport is the Log File record kind for user-reported failures.
const KindUserReport = "user-report"

// InstallUserReporter attaches the extension to a device. Call before the
// enrolment boot, like Install.
func InstallUserReporter(d *phone.Device, cfg UserReporterConfig) *UserReporter {
	u := &UserReporter{dev: d, cfg: cfg.withDefaults()}
	u.rng = u.deriveRand()
	d.OnBoot(u.startHook)
	return u
}

// Noticed returns how many value failures the simulated user noticed.
func (u *UserReporter) Noticed() int { return u.noticed }

// Lost returns how many noticed failures never became reports (forgotten,
// or the phone was down when the user got around to it).
func (u *UserReporter) Lost() int { return u.lost }

// Reports parses the user-report records currently on flash.
func (u *UserReporter) Reports() []Record {
	data, ok := u.dev.FS().Read(u.cfg.LogPath)
	if !ok {
		return nil
	}
	var out []Record
	for _, r := range ParseRecords(data) {
		if r.Kind == KindUserReport {
			out = append(out, r)
		}
	}
	return out
}

// ReportingCoverage returns the fraction of ground-truth output failures
// that ended up reported — the bias measurement the paper wished it had.
func (u *UserReporter) ReportingCoverage() float64 {
	truth := u.dev.Oracle().Count(phone.TruthOutputFailure)
	if truth == 0 {
		return 0
	}
	return float64(len(u.Reports())) / float64(truth)
}

// startHook re-registers the output-failure subscription on every boot.
// The random stream persists across boots (it belongs to the user, not to
// the phone's power state).
func (u *UserReporter) startHook(d *phone.Device) {
	rng := u.rng
	d.RegisterOutputFailureHook(func(of phone.OutputFailure) {
		if !rng.Bool(u.cfg.NoticeProb) {
			return
		}
		u.noticed++
		if !rng.Bool(u.cfg.ReportProb) {
			u.lost++
			return
		}
		delay := rng.LogNormalDuration(u.cfg.ReportDelayMedian, u.cfg.ReportDelaySigma)
		failTime := of.Time
		detail := of.Detail
		activity := string(of.Activity)
		d.Engine().After(delay, func() {
			// The report needs a working phone to be entered on.
			if d.State() != phone.StateOn {
				u.lost++
				return
			}
			rec := Record{
				Kind:     KindUserReport,
				Time:     int64(d.Now()),
				PrevTime: int64(failTime), // when the failure happened
				Detected: Detection(detail),
				Activity: activity,
			}
			// Best-effort by design: a user report that cannot be written is
			// simply lost, like a paper form nobody files.
			//symlint:allow errdrop user-report appends are deliberately lossy on full flash; the loss itself is modeled
			d.FS().Append(u.cfg.LogPath, FrameRecord(rec))
		})
	})
}

// deriveRand derives the reporter's own deterministic stream from the
// device identity (FNV-1a over the ID), so installing the extension does
// not perturb the main study's random decisions.
func (u *UserReporter) deriveRand() *sim.Rand {
	seed := uint64(14695981039346656037)
	for _, b := range []byte(u.dev.ID()) {
		seed = (seed ^ uint64(b)) * 1099511628211
	}
	return sim.NewRand(seed)
}
