package phone

import (
	"fmt"
	"time"

	"symfail/internal/sim"
)

// FleetConfig shapes a deployment of instrumented phones — the paper's
// study ran 25 phones for 14 months, with phones joining progressively
// from September 2005.
type FleetConfig struct {
	// Seed drives enrolment staggering and derives per-device seeds.
	Seed uint64
	// Phones is the number of devices (25 in the paper).
	Phones int
	// Duration is the observation window (14 months in the paper).
	Duration time.Duration
	// JoinWindow is the span over which phones join the study; a phone
	// joining late is observed for less time, like the paper's
	// progressively-deployed loggers.
	JoinWindow time.Duration
	// Device optionally customises the per-device calibration; when nil,
	// DefaultConfig is used with a derived seed and a persona drawn from
	// the default mix (set UniformPersonas to suppress the draw).
	Device func(seed uint64) Config
	// UniformPersonas keeps every default-config device on the balanced
	// persona (used by tests that pin rates).
	UniformPersonas bool
	// Flash arms the flash fault model on every device. Applied after the
	// persona/OS draws so enabling adversity does not change which persona
	// or OS version a device gets.
	Flash FlashFaults
	// Workers bounds how many device shards Run simulates concurrently:
	// 0 means GOMAXPROCS, 1 reproduces the fully serial run. The worker
	// count may only change wall-clock time — every count produces
	// byte-identical devices, logs and datasets, because each device owns
	// a private engine and RNG and devices never interact.
	Workers int
}

// Fleet is a set of enrolled devices. Each device is one shard of the
// study: it owns a private discrete-event engine (Engines[i] drives
// Devices[i] and nothing else), which is what lets Run simulate shards on
// concurrent workers without perturbing a single event — the paper's 25
// phones never interact except through the collection server, and neither
// do ours.
type Fleet struct {
	Engines []*sim.Engine
	Devices []*Device
	cfg     FleetConfig
}

// osVersionMix reflects the study deployment: Symbian 6.1 to 8.0 or 9.0,
// with the majority on 8.0.
var osVersionMix = []struct {
	version string
	weight  float64
}{
	{"6.1", 12},
	{"7.0", 16},
	{"8.0", 56},
	{"9.0", 16},
}

// NewFleet builds and enrols the devices (phones join at deterministic,
// seed-derived offsets inside the join window). Call Run to simulate.
//
// Construction is always serial, whatever cfg.Workers says: per-device
// seeds, personas, OS versions and join offsets are all drawn from one
// fleet RNG in device order, so the draw sequence — and therefore every
// device's identity — is independent of how the run is later scheduled.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Phones <= 0 {
		panic("phone: fleet needs at least one phone")
	}
	r := sim.NewRand(cfg.Seed)
	fl := &Fleet{cfg: cfg}
	for i := 0; i < cfg.Phones; i++ {
		devSeed := r.Uint64()
		devCfg := DefaultConfig(devSeed)
		if cfg.Device != nil {
			devCfg = cfg.Device(devSeed)
		} else if !cfg.UniformPersonas {
			weights := make([]float64, len(personaMix))
			for j, pm := range personaMix {
				weights[j] = pm.w
			}
			ApplyPersona(&devCfg, personaMix[r.WeightedIndex(weights)].p)
		}
		if devCfg.OSVersion == "" || devCfg.OSVersion == "8.0" {
			weights := make([]float64, len(osVersionMix))
			for j, v := range osVersionMix {
				weights[j] = v.weight
			}
			devCfg.OSVersion = osVersionMix[r.WeightedIndex(weights)].version
		}
		if cfg.Flash.Enabled() {
			devCfg.Flash = cfg.Flash
		}
		eng := sim.NewEngine()
		d := NewDevice(fmt.Sprintf("phone-%02d", i+1), eng, devCfg)
		var join time.Duration
		if cfg.JoinWindow > 0 {
			join = time.Duration(r.Float64() * float64(cfg.JoinWindow))
		}
		d.Enroll(sim.Epoch.Add(join))
		fl.Engines = append(fl.Engines, eng)
		fl.Devices = append(fl.Devices, d)
	}
	return fl
}

// Run simulates the whole observation window and finalises every device.
// Shards (one device, its engine and its RNG streams each) run on up to
// cfg.Workers concurrent workers; each worker owns its shard outright for
// the duration, per the sim.Engine ownership contract, so any worker count
// yields byte-identical results.
func (f *Fleet) Run() error {
	until := sim.Epoch.Add(f.cfg.Duration)
	return sim.RunShards(len(f.Devices), f.cfg.Workers, func(i int) error {
		if err := f.Engines[i].Run(until); err != nil {
			return err
		}
		f.Devices[i].Finalize()
		return nil
	})
}

// ObservedHours sums powered-on hours across the fleet.
func (f *Fleet) ObservedHours() float64 {
	var total float64
	for _, d := range f.Devices {
		total += d.Oracle().ObservedHours
	}
	return total
}

// TruthFailures sums ground-truth freezes and self-shutdowns.
func (f *Fleet) TruthFailures() int {
	n := 0
	for _, d := range f.Devices {
		n += d.Oracle().Failures()
	}
	return n
}
