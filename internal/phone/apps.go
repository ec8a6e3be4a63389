package phone

import (
	"slices"

	"symfail/internal/symbos"
)

// Stock application names, matching the applications of the paper's
// Table 4.
const (
	AppTelephone = "Telephone"
	AppMessages  = "Messages"
	AppContacts  = "Contacts"
	AppCamera    = "Camera"
	AppClock     = "Clock"
	AppLog       = "Log"
	AppFExplorer = "FExplorer"
	AppBTBrowser = "BT_Browser"
	AppTomTom    = "TomTom"
	AppMenu      = "Menu"
)

// activityApps maps each activity class to the applications it opens. The
// first entry is the foreground application (the fault victim by default).
var activityApps = map[Activity][]string{
	ActVoiceCall: {AppTelephone, AppLog},
	ActMessage:   {AppMessages},
	ActContacts:  {AppContacts},
	ActCamera:    {AppCamera},
	ActBluetooth: {AppBTBrowser},
	ActNav:       {AppTomTom},
	ActBrowseFS:  {AppFExplorer},
	ActClock:     {AppClock},
	ActAudio:     {AppMessages},
}

// App is one running application: a process with a UI flag (UI applications
// are watched by the View Server) and a tiny in-process service so that the
// client/server defect paths (USER 70, KERN-SVR 0) have somewhere to live.
type App struct {
	name    string
	ui      bool
	visible bool // listed by the Application Architecture Server
	dev     *Device
	proc    *symbos.Process
	svc     *symbos.Server // built by service, at the first request
}

// Name returns the application name.
func (a *App) Name() string { return a.name }

// Proc returns the application's process.
func (a *App) Proc() *symbos.Process { return a.proc }

// Alive reports whether the application is still running.
func (a *App) Alive() bool { return a.proc.Alive() }

// LaunchApp starts (or returns the already-running) named application.
func (d *Device) LaunchApp(name string) *App {
	return d.launch(name, true)
}

// shellApp returns the resident idle shell (the standby screen). It is not
// a user-visible application, so the Application Architecture Server does
// not list it.
func (d *Device) shellApp() *App {
	return d.launch("Shell", false)
}

func (d *Device) launch(name string, visible bool) *App {
	if a, ok := d.apps[name]; ok && a.Alive() {
		return a
	}
	proc := d.kernel.StartProcess(name, false)
	proc.Main().WatchViewSrv() // all stock apps are UI applications
	a := &App{name: name, ui: true, visible: visible, dev: d, proc: proc}
	d.apps[name] = a
	return a
}

// service returns the application's in-process service, adopting the
// process as a server at the first request: almost no launch is ever sent
// one.
func (a *App) service() *symbos.Server {
	if a.svc == nil {
		a.svc = symbos.AdoptServer(a.proc, serveApp)
	}
	return a.svc
}

// serveApp is every application's in-process service.
func serveApp(m *symbos.Message) {
	switch m.Op {
	case OpPing:
		m.Complete(symbos.KErrNone)
	case OpCorruptComplete:
		m.NullifyPtr()
		m.Complete(symbos.KErrNone)
	default:
		m.Complete(symbos.KErrNotSupported)
	}
}

// CloseApp exits the named application if it is running.
func (d *Device) CloseApp(name string) {
	a, ok := d.apps[name]
	if !ok {
		return
	}
	delete(d.apps, name)
	if a.Alive() {
		d.kernel.TerminateProcess(a.proc)
	}
}

// AppRunning reports whether the named application is currently running.
func (d *Device) AppRunning(name string) bool {
	a, ok := d.apps[name]
	return ok && a.Alive()
}

// RunningApps returns the user-visible applications currently running, in
// lexical order — this is what the Application Architecture Server reports
// to the logger's Running Applications Detector.
func (d *Device) RunningApps() []string {
	return append([]string(nil), d.runningNames()...)
}

// runningNames is RunningApps in the device's scratch, valid until the
// next call.
func (d *Device) runningNames() []string {
	d.appNames = d.appNames[:0]
	for name, a := range d.apps {
		if a.Alive() && a.visible {
			d.appNames = append(d.appNames, name)
		}
	}
	slices.Sort(d.appNames)
	return d.appNames
}

// appendRunningApps appends the comma-separated running applications, in
// RunningApps order, to dst: the Application Architecture Server's reply.
func (d *Device) appendRunningApps(dst []byte) []byte {
	for i, name := range d.runningNames() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, name...)
	}
	return dst
}

// randomRunningApp picks a running application uniformly (nil when none).
func (d *Device) randomRunningApp() *App {
	names := d.runningNames()
	if len(names) == 0 {
		return nil
	}
	return d.apps[names[d.rng.Intn(len(names))]]
}

// perform exercises the healthy code path of an application for the given
// activity. These are not placebo calls: they run real symbos operations
// (descriptors, list boxes, heap, client/server) so that the phone is
// "using" the OS exactly where the fault model later misuses it.
func (a *App) perform(act Activity) {
	d := a.dev
	k := d.kernel
	ui := d.uiKit()
	k.Exec(a.proc.Main(), func() {
		t := a.proc.Main()
		switch act {
		case ActVoiceCall:
			num := ui.number
			num.Copy("+3908112345")
			num.Append("67")
			sess := d.dbLog.Connect(t)
			sess.SendReceive(OpPing, "call "+num.String())
			sess.Close()
		case ActMessage:
			ed := ui.editor
			ed.Text().SetLength(0)
			ed.BeginInlineEdit()
			ed.CommitInlineEdit("see you at the lab at ")
			ed.BeginInlineEdit()
			ed.CommitInlineEdit("9:30")
			a.msgsQueryInto(OpSendMessage, ed.Text().String(), ui.reply)
		case ActContacts:
			lb := ui.contacts
			lb.SetCurrentItem(d.rng.Intn(lb.Count()))
			lb.Draw()
		case ActCamera:
			frame := a.proc.Heap().AllocL(t, 64<<10, "viewfinder")
			shot := a.proc.Heap().AllocL(t, 128<<10, "jpeg")
			a.proc.Heap().Free(frame)
			a.proc.Heap().Free(shot)
		case ActBluetooth:
			sess := d.appArch.Connect(t)
			sess.SendReceive(OpPing, "inquiry")
			sess.Close()
		case ActNav:
			route := symbos.TwoPhaseConstructL(t, a.proc.Heap(), 32<<10, "route", func(*symbos.Cell) {})
			a.proc.Heap().Free(route)
		case ActBrowseFS:
			path := ui.path
			path.Copy("C:\\Documents\\photos")
			path.Append("\\2006")
			_ = path.Mid(3, 9)
		case ActClock:
			ao := t.NewActiveObject("alarm", 1, func(int) {})
			tm := symbos.NewTimer(ao)
			tm.After(d.rng.ExpDuration(30 * 60e9))
			tm.Cancel()
		case ActAudio:
			ac := ui.audio
			ac.SetVolume(1 + d.rng.Intn(9))
		}
	})
}

// uiKit is the healthy-path working set of App.perform: the descriptors,
// editor, list box and audio client an activity exercises. Each is bound
// to one boot's kernel (boot drops the kit) and reset by the operations
// perform runs on it, so one set serves every activity of a boot; an App
// is rebuilt at almost every launch, so a set per App would be rebuilt
// almost every time. The fault model never touches it: its misuses build
// their own.
type uiKit struct {
	number   *symbos.Buf // the dialled number of a voice call
	editor   *symbos.Edwin
	reply    *symbos.Buf // a sent message's delivery report
	contacts *symbos.ListBox
	path     *symbos.Buf // the browsed folder
	audio    *symbos.AudioClient
}

// uiKit returns the boot's kit, building it at the boot's first activity.
func (d *Device) uiKit() *uiKit {
	if d.ui == nil {
		k := d.kernel
		lb := symbos.NewListBox(k)
		for _, n := range []string{"alice", "bob", "carol", "dave"} {
			lb.AddItem(n)
		}
		d.ui = &uiKit{
			number:   symbos.NewBuf(k, 32),
			editor:   symbos.NewEdwin(k, 160),
			reply:    symbos.NewBuf(k, 128),
			contacts: lb,
			path:     symbos.NewBuf(k, 64),
			audio:    symbos.NewAudioClient(k),
		}
	}
	return d.ui
}

// msgsQueryInto is the messaging client library: it issues a request to the
// Message Server and writes the asynchronous reply into the caller's
// descriptor. A reply longer than the descriptor is the defect behind
// "MSGS Client 3: failed to write data into asynchronous call descriptor to
// be passed back to client".
func (a *App) msgsQueryInto(op int, payload string, into *symbos.Buf) int {
	d := a.dev
	sess := d.msgSrv.Connect(a.proc.Main())
	defer sess.Close()
	resp, code := sess.Query(op, payload)
	if code != symbos.KErrNone {
		return code
	}
	if len(resp) > into.MaxLength() {
		d.kernel.Raise(symbos.CatMsgsClient, symbos.TypeMsgsAsyncWrite,
			"failed to write data into asynchronous call descriptor to be passed back to client")
	}
	into.CopyBytes(resp)
	return symbos.KErrNone
}
