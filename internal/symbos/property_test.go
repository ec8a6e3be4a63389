package symbos

import (
	"testing"

	"symfail/internal/sim"
)

func newPropFixture(t *testing.T) (*Kernel, *PropertyBus, *Process) {
	t.Helper()
	eng := sim.NewEngine()
	k := NewKernel(eng)
	k.SetPanicHandler(func(*Panic, *Process) {})
	bus := NewPropertyBus(k)
	return k, bus, k.StartProcess("PropClient", false)
}

func TestPropertyDefineGetSet(t *testing.T) {
	_, bus, _ := newPropFixture(t)
	bus.Define(PropBatteryLevel, 100)
	if v, code := bus.Get(PropBatteryLevel); code != KErrNone || v != 100 {
		t.Fatalf("Get = %d, %s", v, ErrName(code))
	}
	bus.Set(PropBatteryLevel, 55)
	if v, _ := bus.Get(PropBatteryLevel); v != 55 {
		t.Errorf("after Set = %d", v)
	}
	if _, code := bus.Get("nope"); code != KErrNotFound {
		t.Errorf("undefined Get = %s", ErrName(code))
	}
	if keys := bus.Keys(); len(keys) != 1 || keys[0] != PropBatteryLevel {
		t.Errorf("Keys = %v", keys)
	}
}

func TestPropertySubscriptionFiresOnPublication(t *testing.T) {
	k, bus, proc := newPropFixture(t)
	bus.Define(PropBatteryStatus, 0)
	prop := bus.Attach(PropBatteryStatus)
	if prop.Key() != PropBatteryStatus {
		t.Errorf("Key = %q", prop.Key())
	}
	fires := 0
	var ao *ActiveObject
	ao = proc.Main().NewActiveObject("sub", 1, func(int) {
		fires++
		prop.Subscribe(ao) // re-subscribe, the daemon pattern
	})
	k.Exec(proc.Main(), func() { prop.Subscribe(ao) })
	bus.Set(PropBatteryStatus, 1)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("fires = %d", fires)
	}
	// Second publication fires again (the RunL re-subscribed).
	bus.Set(PropBatteryStatus, 0)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if fires != 2 {
		t.Errorf("fires = %d after second publication", fires)
	}
	// Value readable through the handle.
	if v, code := prop.Get(); code != KErrNone || v != 0 {
		t.Errorf("Get = %d, %s", v, ErrName(code))
	}
}

func TestPropertyDoubleSubscribePanics(t *testing.T) {
	k, bus, proc := newPropFixture(t)
	bus.Define(PropCallState, 0)
	prop := bus.Attach(PropCallState)
	ao := proc.Main().NewActiveObject("sub", 1, func(int) {})
	p := k.Exec(proc.Main(), func() {
		prop.Subscribe(ao)
		prop.Subscribe(ao)
	})
	if p == nil || p.Key() != "KERN-EXEC 15" {
		t.Fatalf("panic = %v, want KERN-EXEC 15", p)
	}
}

func TestPropertyCancel(t *testing.T) {
	k, bus, proc := newPropFixture(t)
	bus.Define(PropCallState, 0)
	prop := bus.Attach(PropCallState)
	fires := 0
	ao := proc.Main().NewActiveObject("sub", 1, func(int) { fires++ })
	k.Exec(proc.Main(), func() { prop.Subscribe(ao) })
	prop.Cancel()
	prop.Cancel() // idempotent
	bus.Set(PropCallState, 1)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if fires != 0 {
		t.Errorf("cancelled subscription fired %d times", fires)
	}
	// Re-subscribing after cancel works (no KERN-EXEC 15).
	if p := k.Exec(proc.Main(), func() { prop.Subscribe(ao) }); p != nil {
		t.Fatalf("re-subscribe panicked: %v", p)
	}
	bus.Set(PropCallState, 0)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Errorf("fires = %d after re-subscribe", fires)
	}
}

func TestPropertySubscriberListCompacts(t *testing.T) {
	k, bus, proc := newPropFixture(t)
	bus.Define(PropBatteryLevel, 100)
	prop := bus.Attach(PropBatteryLevel)
	ao := proc.Main().NewActiveObject("sub", 1, func(int) {})
	for i := 0; i < 100; i++ {
		k.Exec(proc.Main(), func() { prop.Subscribe(ao) })
		bus.Set(PropBatteryLevel, i)
		if err := k.Engine().RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(bus.subs[PropBatteryLevel]); got > 1 {
		t.Errorf("subscriber list grew to %d (should compact)", got)
	}
}

func TestPropertyMultipleSubscribers(t *testing.T) {
	k, bus, proc := newPropFixture(t)
	bus.Define(PropBatteryStatus, 0)
	a := bus.Attach(PropBatteryStatus)
	b := bus.Attach(PropBatteryStatus)
	var gotA, gotB int
	aoA := proc.Main().NewActiveObject("a", 1, func(int) { gotA++ })
	aoB := proc.Main().NewActiveObject("b", 1, func(int) { gotB++ })
	k.Exec(proc.Main(), func() {
		a.Subscribe(aoA)
		b.Subscribe(aoB)
	})
	bus.Set(PropBatteryStatus, 1)
	if err := k.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if gotA != 1 || gotB != 1 {
		t.Errorf("fires = %d/%d", gotA, gotB)
	}
}
