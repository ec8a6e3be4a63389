package stream

import (
	"symfail/internal/core"
	"symfail/internal/sim"
)

// HLKind classifies high-level (user-perceived) failure events.
type HLKind string

// High-level event kinds. UserShutdown is not a failure; it is kept so the
// "include all shutdown events" robustness check of section 6 can run.
const (
	HLFreeze       HLKind = "freeze"
	HLSelfShutdown HLKind = "self-shutdown"
	HLUserShutdown HLKind = "user-shutdown"
)

// HLEvent is one reconstructed high-level event.
type HLEvent struct {
	Device     string
	Kind       HLKind
	Time       sim.Time // when the phone went down (last heartbeat record)
	OffSeconds float64  // reboot duration observed at the following boot

	// refd is set by the device cursor when a finalized panic coalesces
	// with this event, so the coalescence reducer can count isolated HL
	// events without holding every panic pointer.
	refd bool
}

// PanicEvent is one panic record enriched by the pipeline.
type PanicEvent struct {
	Device   string
	Time     sim.Time
	Category string
	Type     int
	Apps     []string
	Activity string

	// Burst is the 1-based index of the cascade this panic belongs to
	// (unique per device); BurstLen is the cascade size.
	Burst    int
	BurstLen int
	// Related points at the coalesced high-level event, nil if isolated.
	Related *HLEvent
}

// Key returns the "category type" identity used by the tables.
func (p *PanicEvent) Key() string {
	return core.Record{Kind: core.KindPanic, Category: p.Category, PType: p.Type}.PanicKey()
}
