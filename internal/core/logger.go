package core

import (
	"strings"
	"time"

	"symfail/internal/phone"
	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// Config tunes the logger. Zero values fall back to the defaults the study
// deployment used.
type Config struct {
	// HeartbeatPeriod is the Heartbeat AO period (default: the device's
	// configured heartbeat period). Shorter periods detect freezes with
	// finer off-time resolution at the price of flash wear — the ablation
	// bench sweeps this.
	HeartbeatPeriod time.Duration
	// RunAppPeriod is the Running Applications Detector sampling period.
	RunAppPeriod time.Duration
	// ActivityPeriod is the Log Engine collection period.
	ActivityPeriod time.Duration
	// MaxLogBytes caps the consolidated Log File on flash. When an append
	// would exceed the cap, the oldest complete records are dropped
	// (front-truncated at a record boundary) — study-era phones had
	// single-digit megabytes of flash to spare. Zero means 1 MiB.
	MaxLogBytes int
	// Paths for the on-flash files (defaults: the Default*Path constants).
	LogPath, BeatsPath, RunAppPath, ActivityPath, PowerPath string
}

func (c Config) withDefaults(d *phone.Device) Config {
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = d.Config().HeartbeatPeriod
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 5 * time.Minute
	}
	if c.RunAppPeriod <= 0 {
		c.RunAppPeriod = d.Config().RunAppSamplePeriod
	}
	if c.RunAppPeriod <= 0 {
		c.RunAppPeriod = 10 * time.Minute
	}
	if c.ActivityPeriod <= 0 {
		c.ActivityPeriod = 30 * time.Minute
	}
	if c.MaxLogBytes <= 0 {
		c.MaxLogBytes = 1 << 20
	}
	if c.LogPath == "" {
		c.LogPath = DefaultLogPath
	}
	if c.BeatsPath == "" {
		c.BeatsPath = DefaultBeatsPath
	}
	if c.RunAppPath == "" {
		c.RunAppPath = DefaultRunAppPath
	}
	if c.ActivityPath == "" {
		c.ActivityPath = DefaultActivityPath
	}
	if c.PowerPath == "" {
		c.PowerPath = DefaultPowerPath
	}
	return c
}

// Logger is the failure data logger installed on one device. It restarts
// its daemon at every boot (the phone start-up launches it, Figure 1) and
// accumulates its records on the device's flash filesystem.
type Logger struct {
	dev *phone.Device
	cfg Config
}

// Install attaches the logger to a device. It takes effect from the next
// boot, so call it before the device's enrolment boot fires.
func Install(d *phone.Device, cfg Config) *Logger {
	l := &Logger{dev: d, cfg: cfg.withDefaults(d)}
	d.OnBoot(l.startDaemon)
	return l
}

// Device returns the instrumented device.
func (l *Logger) Device() *phone.Device { return l.dev }

// Config returns the resolved logger configuration.
func (l *Logger) Config() Config { return l.cfg }

// Records parses the consolidated Log File as currently on flash.
func (l *Logger) Records() []Record {
	data, ok := l.dev.FS().Read(l.cfg.LogPath)
	if !ok {
		return nil
	}
	return ParseRecords(data)
}

// LogBytes returns the raw Log File (what the collection infrastructure
// uploads).
func (l *Logger) LogBytes() []byte {
	data, _ := l.dev.FS().Read(l.cfg.LogPath)
	return data
}

// daemon is the per-boot state of the logger application.
type daemon struct {
	l    *Logger
	dev  *phone.Device
	k    *symbos.Kernel
	proc *symbos.Process

	appArch  *symbos.Session
	dbLog    *symbos.Session
	sysAgent *symbos.Session
	files    *symbos.FileSession

	heartbeat *symbos.ActiveObject
	hbTimer   *symbos.Timer
	runApp    *symbos.ActiveObject
	raTimer   *symbos.Timer
	logEngine *symbos.ActiveObject
	leTimer   *symbos.Timer
	powerMgr  *symbos.ActiveObject
	battProp  *symbos.Property

	// Scratch encode buffers: every heartbeat and record append reuses
	// them instead of allocating a payload and a frame per write. The
	// daemon is single-threaded (one engine), and the file server copies
	// the body it stores, so reuse is safe.
	payload []byte
	buf     []byte
}

// startDaemon launches the logger application on the freshly booted kernel.
func (l *Logger) startDaemon(d *phone.Device) {
	k := d.Kernel()
	dm := &daemon{l: l, dev: d, k: k}
	dm.proc = k.StartProcess("FailureLogger", false)
	t := dm.proc.Main()
	dm.appArch = d.AppArchServer().Connect(t)
	dm.dbLog = d.DBLogServer().Connect(t)
	dm.sysAgent = d.SysAgentServer().Connect(t)
	dm.files = d.FileServer().Connect(t)

	// Boot-time work of the Panic Detector: repair the Log File from its
	// on-flash bytes (a battery pull can tear the last append), classify
	// how the previous session ended from the last heartbeat record,
	// consolidate a boot record, and reset the heartbeat.
	k.Exec(t, func() {
		recovered := dm.recoverLog()
		dm.consolidateBoot(recovered)
		dm.writeBeat(BeatAlive)
	})

	// Heartbeat AO: the highest-priority active object, re-arming its own
	// RTimer every period.
	dm.heartbeat = t.NewActiveObject("Heartbeat", 10, func(int) {
		dm.writeBeat(BeatAlive)
		dm.hbTimer.After(l.cfg.HeartbeatPeriod)
	})
	dm.hbTimer = symbos.NewTimer(dm.heartbeat)
	k.Exec(t, func() { dm.hbTimer.After(l.cfg.HeartbeatPeriod) })

	// Running Applications Detector AO.
	dm.runApp = t.NewActiveObject("RunningApplicationsDetector", 5, func(int) {
		dm.sampleRunningApps()
		dm.raTimer.After(l.cfg.RunAppPeriod)
	})
	dm.raTimer = symbos.NewTimer(dm.runApp)
	k.Exec(t, func() { dm.raTimer.After(l.cfg.RunAppPeriod) })

	// Log Engine AO.
	dm.logEngine = t.NewActiveObject("LogEngine", 5, func(int) {
		dm.collectActivity()
		dm.leTimer.After(l.cfg.ActivityPeriod)
	})
	dm.leTimer = symbos.NewTimer(dm.logEngine)
	k.Exec(t, func() { dm.leTimer.After(l.cfg.ActivityPeriod) })

	// Power Manager AO: subscribes to the System Agent's battery property
	// and refreshes the power file on every publication, so a LOWBT
	// shutdown can be told apart from a failure (section 5.1).
	dm.battProp = d.Properties().Attach(symbos.PropBatteryStatus)
	dm.powerMgr = t.NewActiveObject("PowerManager", 5, func(int) {
		dm.recordPower()
		dm.battProp.Subscribe(dm.powerMgr)
	})
	k.Exec(t, func() {
		dm.recordPower()
		dm.battProp.Subscribe(dm.powerMgr)
	})

	// Panic Detector: RDebug notification from the Kernel Server.
	k.SubscribeRDebug(dm.onPanic)

	// Power Manager + Heartbeat shutdown path: when Symbian lets
	// applications complete their tasks before power-off, record why.
	d.RegisterShutdownHook(func(reason phone.ShutdownReason) {
		k.Exec(t, func() {
			switch reason {
			case phone.ReasonLowBattery:
				dm.writeBeat(BeatLowBat)
			case phone.ReasonLoggerOff:
				dm.writeBeat(BeatMAOff)
			default:
				dm.writeBeat(BeatReboot)
			}
		})
	})
}

// maxBeatsBytes caps the append-only heartbeat file; past it the file is
// compacted down to the newest beat (only the last beat matters to the
// boot-time detector).
const maxBeatsBytes = 4 << 10

// writeBeat records the heartbeat on flash, through the file server like
// any other Symbian application. Beats are *appended* as checksummed
// frames rather than rewriting the file in place: a torn append only
// damages the newest frame, and recovery falls back to the previous beat —
// rewriting in place would risk destroying the very record the freeze
// detector depends on.
func (dm *daemon) writeBeat(kind BeatKind) {
	dm.payload = AppendBeat(dm.payload[:0], Beat{Kind: kind, Time: int64(dm.k.Now())})
	dm.buf = AppendFrame(dm.buf[:0], dm.payload)
	frame := dm.buf
	if n, code := dm.files.SizeFile(dm.l.cfg.BeatsPath); code == symbos.KErrNone &&
		n+len(frame) > maxBeatsBytes {
		dm.files.WriteFile(dm.l.cfg.BeatsPath, frame)
		return
	}
	dm.files.AppendFile(dm.l.cfg.BeatsPath, frame)
}

// recoverLog repairs the consolidated Log File from its on-flash bytes:
// intact frames are kept, torn tails truncated, corrupt regions excised.
// The logger sees only what a real logger could see — the repair works
// from flash content, never from simulator ground truth. The scan reads
// the file server's view of the flash in place; only excising a lost
// region copies. The result carries the tally; its Clean aliases flash
// bytes the repair may have rewritten, and no caller reads it.
func (dm *daemon) recoverLog() Recovery {
	data, code := dm.files.ReadFile(dm.l.cfg.LogPath)
	if code != symbos.KErrNone || len(data) == 0 {
		return Recovery{}
	}
	rec := scanLog(data, nil)
	if rec.Dirty {
		dm.files.WriteFile(dm.l.cfg.LogPath, rec.Clean)
	}
	return rec
}

// consolidateBoot reads the last heartbeat record and appends the boot
// record that section 5.2's decision procedure implies, carrying the log
// recovery tally when the previous session's file needed repair.
func (dm *daemon) consolidateBoot(recovered Recovery) {
	now := dm.k.Now()
	rec := Record{
		Kind:      KindBoot,
		Time:      int64(now),
		Boot:      dm.dev.BootCount(),
		OSVersion: dm.dev.OSVersion(),
	}
	if recovered.Dirty {
		rec.LogSalvaged = recovered.Salvaged
		rec.LogLost = recovered.Lost
	}
	if data, code := dm.files.ReadFile(dm.l.cfg.BeatsPath); code == symbos.KErrNone {
		if beat, valid := ParseBeat(data); valid {
			rec.PrevBeat = beat.Kind
			rec.PrevTime = beat.Time
			rec.OffSeconds = now.Sub(sim.Time(beat.Time)).Seconds()
			switch beat.Kind {
			case BeatAlive:
				// Power vanished with no orderly shutdown: the phone was
				// frozen and the battery was pulled.
				rec.Detected = DetectedFreeze
			case BeatReboot:
				rec.Detected = DetectedShutdown
			case BeatLowBat:
				rec.Detected = DetectedLowBattery
			case BeatMAOff:
				rec.Detected = DetectedLoggerOff
			}
		} else {
			rec.Detected = DetectedFirstBoot
		}
	} else {
		rec.Detected = DetectedFirstBoot
	}
	dm.append(rec)
}

// onPanic is the Panic Detector: for every RDebug notification it gathers
// the running applications and the current phone activity, and appends a
// consolidated panic record.
func (dm *daemon) onPanic(p *symbos.Panic) {
	rec := Record{
		Kind:     KindPanic,
		Time:     int64(p.Time),
		Category: string(p.Category),
		PType:    p.Type,
		Apps:     dm.queryRunningApps(),
		Activity: dm.currentActivity(p.Time),
	}
	dm.append(rec)
}

// sampleRunningApps refreshes the runapp file with the Application
// Architecture Server's reply as it arrives (comma-separated IDs; empty
// when the query fails).
func (dm *daemon) sampleRunningApps() {
	dm.files.WriteFile(dm.l.cfg.RunAppPath, dm.runningAppsReply())
}

// runningAppsReply asks the Application Architecture Server for the
// running application IDs. The reply is valid until the next request.
func (dm *daemon) runningAppsReply() []byte {
	resp, code := dm.appArch.Query(phone.OpListApps, "")
	if code != symbos.KErrNone {
		return nil
	}
	return resp
}

// queryRunningApps is runningAppsReply split into IDs.
func (dm *daemon) queryRunningApps() []string {
	resp := dm.runningAppsReply()
	if len(resp) == 0 {
		return nil
	}
	return strings.Split(string(resp), ",")
}

// collectActivity refreshes the activity file from the Database Log Server.
func (dm *daemon) collectActivity() {
	resp, code := dm.dbLog.Query(phone.OpRecentActivity, "")
	if code != symbos.KErrNone {
		return
	}
	dm.files.WriteFile(dm.l.cfg.ActivityPath, resp)
}

// recordPower refreshes the power file from the System Agent.
func (dm *daemon) recordPower() {
	if batt, code := dm.sysAgent.Query(phone.OpBatteryStatus, ""); code == symbos.KErrNone {
		dm.files.WriteFile(dm.l.cfg.PowerPath, batt)
	}
}

// currentActivity resolves the registered activity (voice call or message)
// in progress at the given instant, or "unspecified" — the Database Log
// Server registers only calls and messages (Table 3).
func (dm *daemon) currentActivity(at sim.Time) string {
	resp, code := dm.dbLog.Query(phone.OpRecentActivity, "")
	if code != symbos.KErrNone {
		return "unspecified"
	}
	for _, rec := range phone.DecodeActivity(string(resp)) {
		if rec.Start.After(at) {
			continue
		}
		if rec.Ongoing() || !rec.End.Before(at) {
			return string(rec.Kind)
		}
	}
	return "unspecified"
}

// append adds a record to the consolidated Log File as a checksummed
// frame, rotating when the flash budget is exhausted.
func (dm *daemon) append(rec Record) {
	dm.payload = AppendRecord(dm.payload[:0], rec)
	dm.buf = AppendFrame(dm.buf[:0], dm.payload)
	frame := dm.buf
	if n, code := dm.files.SizeFile(dm.l.cfg.LogPath); code == symbos.KErrNone &&
		n+len(frame) > dm.l.cfg.MaxLogBytes {
		// Rotation keeps the newest half of the records: it scans the
		// file server's view of the flash and writes back a suffix of it
		// (a copy only when a lost region has to be excised).
		if data, rcode := dm.files.ReadFile(dm.l.cfg.LogPath); rcode == symbos.KErrNone {
			dm.files.WriteFile(dm.l.cfg.LogPath, rotateFramed(data, dm.l.cfg.MaxLogBytes/2))
		}
	}
	dm.files.AppendFile(dm.l.cfg.LogPath, frame)
}

// rotate drops the oldest records so at most keep bytes remain, cutting at
// a record (line) boundary so the survivor still parses.
func rotate(data []byte, keep int) []byte {
	if len(data) <= keep {
		return data
	}
	cut := len(data) - keep
	for cut < len(data) && data[cut-1] != '\n' {
		cut++
	}
	return append([]byte(nil), data[cut:]...)
}
