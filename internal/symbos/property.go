package symbos

import (
	"fmt"
	"sort"
)

// Publish & Subscribe (RProperty). The System Agent of the study-era
// Symbian exposes system state — battery level, signal strength, call
// state — as properties that clients can read or subscribe to. A
// subscription completes an active object whenever the property changes,
// which is how daemons like the logger's Power Manager learn about battery
// transitions without polling.

// PropertyKey identifies one property (category/key pair in real Symbian;
// a string is enough here).
type PropertyKey string

// Well-known property keys used by the phone model.
const (
	PropBatteryLevel  PropertyKey = "system/battery-level"  // integer percent
	PropBatteryStatus PropertyKey = "system/battery-status" // 0 ok, 1 low
	PropCallState     PropertyKey = "system/call-state"     // 0 idle, 1 in-call
)

// PropertyBus is the kernel-side property store.
type PropertyBus struct {
	kernel *Kernel
	values map[PropertyKey]int
	subs   map[PropertyKey][]*propertySub
}

type propertySub struct {
	ao        *ActiveObject
	active    bool
	cancelled bool
}

// NewPropertyBus creates the property store for one kernel.
func NewPropertyBus(k *Kernel) *PropertyBus {
	return &PropertyBus{
		kernel: k,
		values: make(map[PropertyKey]int),
		subs:   make(map[PropertyKey][]*propertySub),
	}
}

// Define sets a property's initial value (RProperty::Define).
func (b *PropertyBus) Define(key PropertyKey, value int) {
	b.values[key] = value
}

// Get reads a property (RProperty::Get). Reading an undefined property
// returns KErrNotFound.
func (b *PropertyBus) Get(key PropertyKey) (int, int) {
	v, ok := b.values[key]
	if !ok {
		return 0, KErrNotFound
	}
	return v, KErrNone
}

// Set publishes a new value (RProperty::Set), completing every outstanding
// subscription. Setting the same value is still a publication, as on real
// Symbian.
func (b *PropertyBus) Set(key PropertyKey, value int) {
	b.values[key] = value
	subs := b.subs[key]
	for _, s := range subs {
		if s.active && !s.cancelled {
			s.active = false
			s.ao.Complete(KErrNone)
		}
	}
	// Fired and cancelled subscriptions are one-shot; drop them so the
	// list does not grow with every publication.
	live := subs[:0]
	for _, s := range subs {
		if s.active && !s.cancelled {
			live = append(live, s)
		}
	}
	b.subs[key] = live
}

// Keys returns the defined property keys, sorted.
func (b *PropertyBus) Keys() []PropertyKey {
	out := make([]PropertyKey, 0, len(b.values))
	for k := range b.values {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Property is a client handle to one property (RProperty attached).
type Property struct {
	bus *PropertyBus
	key PropertyKey
	sub *propertySub
}

// Attach opens a handle to the property (RProperty::Attach).
func (b *PropertyBus) Attach(key PropertyKey) *Property {
	return &Property{bus: b, key: key}
}

// Key returns the property key.
func (p *Property) Key() PropertyKey { return p.key }

// Get reads the current value.
func (p *Property) Get() (int, int) { return p.bus.Get(p.key) }

// Subscribe registers interest: ao completes on the next publication
// (RProperty::Subscribe). Re-subscribing while a subscription is
// outstanding raises KERN-EXEC 15 — like every other "request while one is
// pending" misuse of an asynchronous service.
func (p *Property) Subscribe(ao *ActiveObject) {
	if p.sub != nil && p.sub.active && !p.sub.cancelled {
		p.bus.kernel.Raise(CatKernExec, TypeTimerInUse,
			fmt.Sprintf("property %q subscribed while a subscription is outstanding", p.key))
	}
	ao.SetActive()
	// A subscription a publication fired is already off the bus's list
	// (Set drops it in the same call), so it can be listed again as is;
	// a cancelled one may still be listed until the next publication, so
	// it is never reused.
	if p.sub == nil || p.sub.cancelled {
		p.sub = &propertySub{}
	}
	*p.sub = propertySub{ao: ao, active: true}
	p.bus.subs[p.key] = append(p.bus.subs[p.key], p.sub)
}

// Cancel withdraws the outstanding subscription (RProperty::Cancel).
func (p *Property) Cancel() {
	if p.sub == nil || !p.sub.active {
		return
	}
	p.sub.cancelled = true
	p.sub.active = false
	p.sub.ao.Cancel()
}
