package phone

import (
	"strconv"
	"strings"

	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// Client/server operation codes understood by the firmware servers and the
// per-application services.
const (
	// OpPing is answered with KErrNone by every service.
	OpPing = iota + 1
	// OpCorruptComplete makes the service complete the request through a
	// null RMessagePtr (a planted defect used by the fault model).
	OpCorruptComplete
	// OpListApps (Application Architecture Server) responds with the
	// comma-separated list of running user-visible applications.
	OpListApps
	// OpRecentActivity (Database Log Server) responds with the serialised
	// recent activity records.
	OpRecentActivity
	// OpBatteryStatus (System Agent Server) responds "ok" or "low".
	OpBatteryStatus
	// OpSendMessage (Message Server) accepts an outgoing SMS and responds
	// with a delivery report descriptor.
	OpSendMessage
)

// Firmware server names.
const (
	SrvAppArch  = "AppArchSrv"
	SrvDBLog    = "DBLogSrv"
	SrvSysAgent = "SysAgentSrv"
	SrvMessage  = "MsgSrv"
)

// ActivityRecord is one entry of the Database Log Server: a phone activity
// (voice call, message, ...) with its time span. End is sim.Never while the
// activity is still in progress.
type ActivityRecord struct {
	Kind  Activity
	Start sim.Time
	End   sim.Time
}

// Ongoing reports whether the activity is still in progress.
func (a ActivityRecord) Ongoing() bool { return a.End == sim.Never }

// appendActivity serialises records for the OpRecentActivity response into
// dst ("kind@start:end;...") — the hot path builds the descriptor in the
// device's scratch buffer instead of Sprintf+Join garbage.
func appendActivity(dst []byte, recs []ActivityRecord) []byte {
	for i, r := range recs {
		if i > 0 {
			dst = append(dst, ';')
		}
		end := int64(-1)
		if !r.Ongoing() {
			end = int64(r.End)
		}
		dst = append(dst, string(r.Kind)...)
		dst = append(dst, '@')
		dst = strconv.AppendInt(dst, int64(r.Start), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, end, 10)
	}
	return dst
}

// encodeActivity serialises records for the OpRecentActivity response.
func encodeActivity(recs []ActivityRecord) string {
	return string(appendActivity(nil, recs))
}

// DecodeActivity parses an OpRecentActivity response. Malformed entries are
// skipped, matching how a defensive client treats a flaky server.
func DecodeActivity(s string) []ActivityRecord {
	if s == "" {
		return nil
	}
	var out []ActivityRecord
	for _, part := range strings.Split(s, ";") {
		kindSpan := strings.SplitN(part, "@", 2)
		if len(kindSpan) != 2 {
			continue
		}
		span := strings.SplitN(kindSpan[1], ":", 2)
		if len(span) != 2 {
			continue
		}
		start, err1 := strconv.ParseInt(span[0], 10, 64)
		end, err2 := strconv.ParseInt(span[1], 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		r := ActivityRecord{Kind: Activity(kindSpan[0]), Start: sim.Time(start)}
		if end < 0 {
			r.End = sim.Never
		} else {
			r.End = sim.Time(end)
		}
		out = append(out, r)
	}
	return out
}

// startServers boots the firmware system servers on the current kernel.
// They are critical servers (system=true): the paper observes that panics
// inside them reboot the phone.
func (d *Device) startServers() {
	d.fileSrv = symbos.NewFileServer(d.kernel, d.fs)
	d.props.Define(symbos.PropBatteryLevel, int(d.battery*100))
	d.props.Define(symbos.PropBatteryStatus, 0)
	d.props.Define(symbos.PropCallState, 0)
	d.appArch = symbos.NewServer(d.kernel, SrvAppArch, true, func(m *symbos.Message) {
		switch m.Op {
		case OpListApps:
			d.srvScratch = d.appendRunningApps(d.srvScratch[:0])
			m.Respond(d.srvScratch)
			m.Complete(symbos.KErrNone)
		case OpPing:
			m.Complete(symbos.KErrNone)
		case OpCorruptComplete:
			m.NullifyPtr()
			m.Complete(symbos.KErrNone)
		default:
			m.Complete(symbos.KErrNotSupported)
		}
	})
	d.dbLog = symbos.NewServer(d.kernel, SrvDBLog, true, func(m *symbos.Message) {
		switch m.Op {
		case OpRecentActivity:
			// The logger asks every collection period and at every
			// panic, but the log changes only when a call or message
			// starts or ends: encode the tail once per change.
			if !d.activityEncoded {
				d.activityReply = appendActivity(d.activityReply[:0], d.recentActivityView(10))
				d.activityEncoded = true
			}
			m.Respond(d.activityReply)
			m.Complete(symbos.KErrNone)
		case OpPing:
			m.Complete(symbos.KErrNone)
		case OpCorruptComplete:
			m.NullifyPtr()
			m.Complete(symbos.KErrNone)
		default:
			m.Complete(symbos.KErrNotSupported)
		}
	})
	d.sysAgent = symbos.NewServer(d.kernel, SrvSysAgent, true, func(m *symbos.Message) {
		switch m.Op {
		case OpBatteryStatus:
			status := "ok"
			if d.battery <= d.cfg.LowBatteryThreshold {
				status = "low"
			}
			d.srvScratch = append(d.srvScratch[:0], status...)
			d.srvScratch = append(d.srvScratch, ' ')
			d.srvScratch = strconv.AppendFloat(d.srvScratch, d.battery, 'f', 2, 64)
			m.Respond(d.srvScratch)
			m.Complete(symbos.KErrNone)
		case OpPing:
			m.Complete(symbos.KErrNone)
		default:
			m.Complete(symbos.KErrNotSupported)
		}
	})
	d.msgSrv = symbos.NewServer(d.kernel, SrvMessage, true, func(m *symbos.Message) {
		switch m.Op {
		case OpSendMessage:
			// The delivery report descriptor: long enough that a client
			// with an under-sized buffer hits the MSGS Client 3 path.
			d.srvScratch = append(d.srvScratch[:0], "delivery-report:"...)
			d.srvScratch = append(d.srvScratch, m.Payload...)
			d.srvScratch = append(d.srvScratch, ":accepted-by-smsc"...)
			m.Respond(d.srvScratch)
			m.Complete(symbos.KErrNone)
		case OpPing:
			m.Complete(symbos.KErrNone)
		case OpCorruptComplete:
			m.NullifyPtr()
			m.Complete(symbos.KErrNone)
		default:
			m.Complete(symbos.KErrNotSupported)
		}
	})
}

// FileServer exposes the F32 file server; on-phone software (the logger
// included) persists its files through it.
func (d *Device) FileServer() *symbos.FileServer { return d.fileSrv }

// AppArchServer exposes the Application Architecture Server (the logger's
// Running Applications Detector connects to it).
func (d *Device) AppArchServer() *symbos.Server { return d.appArch }

// DBLogServer exposes the Database Log Server (the logger's Log Engine
// connects to it).
func (d *Device) DBLogServer() *symbos.Server { return d.dbLog }

// SysAgentServer exposes the System Agent Server (the logger's Power
// Manager connects to it).
func (d *Device) SysAgentServer() *symbos.Server { return d.sysAgent }

// MessageServer exposes the Message Server.
func (d *Device) MessageServer() *symbos.Server { return d.msgSrv }

// recordActivityStart opens an activity record in the database log.
func (d *Device) recordActivityStart(kind Activity) {
	if len(d.activityLog) == activityLogCap {
		// Drop the oldest in place, so the log never regrows.
		d.activityLog = append(d.activityLog[:0], d.activityLog[1:]...)
	}
	d.activityLog = append(d.activityLog, ActivityRecord{Kind: kind, Start: d.eng.Now(), End: sim.Never})
	d.activityEncoded = false
}

// recordActivityEnd closes the most recent open record of the given kind.
func (d *Device) recordActivityEnd(kind Activity) {
	for i := len(d.activityLog) - 1; i >= 0; i-- {
		if d.activityLog[i].Kind == kind && d.activityLog[i].Ongoing() {
			d.activityLog[i].End = d.eng.Now()
			d.activityEncoded = false
			return
		}
	}
}

// recentActivity returns up to n most recent records, oldest first.
func (d *Device) recentActivity(n int) []ActivityRecord {
	return append([]ActivityRecord(nil), d.recentActivityView(n)...)
}

// recentActivityView is recentActivity without the defensive copy — for
// synchronous read-only consumers like the Database Log Server handler.
func (d *Device) recentActivityView(n int) []ActivityRecord {
	if len(d.activityLog) <= n {
		return d.activityLog
	}
	return d.activityLog[len(d.activityLog)-n:]
}

// publishBattery pushes the battery state onto the property bus (what the
// real System Agent does), waking subscribers like the logger's Power
// Manager.
func (d *Device) publishBattery() {
	if d.props == nil || d.state != StateOn {
		return
	}
	d.props.Set(symbos.PropBatteryLevel, int(d.battery*100))
	status := 0
	if d.battery <= d.cfg.LowBatteryThreshold {
		status = 1
	}
	d.props.Set(symbos.PropBatteryStatus, status)
}

// activityLogCap bounds the database log the way the real phone bounds its
// event log.
const activityLogCap = 64
