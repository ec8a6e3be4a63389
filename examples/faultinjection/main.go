// Faultinjection: a tour of the simulated Symbian OS. Every panic of the
// paper's Table 2 is raised here by the same API misuse that raises it on a
// real phone: null dereferences, corrupt handles, descriptor overflows,
// stray signals, starved active schedulers, and so on. An RDebug subscriber
// (the hook the paper's Panic Detector uses) captures each one.
package main

import (
	"fmt"
	"time"

	"symfail/internal/sim"
	"symfail/internal/symbos"
)

func main() {
	eng := sim.NewEngine()
	k := symbos.NewKernel(eng)

	// Keep processes alive across demonstrations (the default kernel
	// policy would terminate each offender).
	k.SetPanicHandler(func(*symbos.Panic, *symbos.Process) {})

	var captured []*symbos.Panic
	k.SubscribeRDebug(func(p *symbos.Panic) { captured = append(captured, p) })

	app := k.StartProcess("DemoApp", false)
	app.Main().WatchViewSrv()
	main := app.Main()

	demos := []struct {
		name string
		run  func()
	}{
		{"dereference NULL", func() {
			symbos.NullPtr(k).Deref()
		}},
		{"dereference freed memory", func() {
			c := app.Heap().AllocL(main, 64, "buffer")
			p := symbos.PtrTo(k, c)
			app.Heap().Free(c)
			p.Deref()
		}},
		{"resolve a corrupt handle", func() {
			app.FindObject(app.CorruptHandle())
		}},
		{"close a corrupt handle", func() {
			app.CloseHandle(app.CorruptHandle())
		}},
		{"overflow a descriptor", func() {
			b := symbos.NewBuf(k, 8)
			b.Copy("12345678")
			b.Append("9")
		}},
		{"descriptor position out of bounds", func() {
			b := symbos.NewBuf(k, 16)
			b.Copy("short")
			b.Mid(3, 10)
		}},
		{"delete a CObject with live references", func() {
			o := symbos.NewCObject(k, "shared")
			o.AddRef()
			o.Delete()
		}},
		{"double-arm an RTimer", func() {
			ao := main.NewActiveObject("poll", 1, func(int) {})
			tm := symbos.NewTimer(ao)
			tm.After(time.Second)
			tm.After(time.Second)
		}},
		{"use the cleanup stack with no trap handler", func() {
			w := app.SpawnThread("worker")
			w.DropCleanupStack()
			k.Exec(w, func() { w.PushL(func() {}) })
		}},
		{"list box with an invalid current item", func() {
			lb := symbos.NewListBox(k)
			lb.AddItem("only")
			lb.SetCurrentItem(5)
		}},
		{"audio volume out of range", func() {
			symbos.NewAudioClient(k).SetVolume(11)
		}},
	}

	for _, d := range demos {
		before := len(captured)
		k.Exec(main, d.run)
		// Some panics (active-object ones) fire on the next engine tick.
		_ = eng.RunAll()
		if len(captured) > before {
			p := captured[len(captured)-1]
			fmt.Printf("%-42s -> %-18s %s\n", d.name, p.Key(), trim(p.Reason, 52))
		} else {
			fmt.Printf("%-42s -> (no panic?)\n", d.name)
		}
	}

	// Deferred active-object panics: a stray signal and a leaving RunL.
	ao := main.NewActiveObject("notifier", 1, func(int) {})
	ao.Complete(symbos.KErrNone) // never SetActive: stray signal
	leaver := main.NewActiveObject("fetcher", 1, func(int) { main.Leave(symbos.KErrNoMemory) })
	k.Exec(main, func() { leaver.SetActive() })
	leaver.Complete(symbos.KErrNone)
	hog := main.NewActiveObject("redraw-loop", 1, func(int) {})
	hog.SetCost(45 * time.Second) // monopolise the scheduler
	k.Exec(main, func() { hog.SetActive() })
	hog.Complete(symbos.KErrNone)
	_ = eng.RunAll()

	fmt.Printf("\ncaptured %d panics in total; the last three (via the active scheduler):\n", len(captured))
	for _, p := range captured[len(captured)-3:] {
		fmt.Printf("  %-18s %s\n", p.Key(), trim(p.Reason, 60))
	}
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
