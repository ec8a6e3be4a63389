// Robotcontrol: the paper's introduction motivates the study with critical
// applications — "robot control [15, 10], traffic control [2] and
// telemedicine [4]. In such scenarios, a phone failure affecting the
// application could result in a significant loss or hazard, e.g., a robot
// performing uncontrolled actions."
//
// This example builds that scenario: a tele-operation application on the
// simulated phone streams command refreshes to a robot every few seconds.
// When the phone freezes or reboots, the stream stops and the robot keeps
// executing its last command until its watchdog trips. The example
// measures how often that hazard window opens over six months of normal
// phone usage — and how the phone's everyday dependability (a failure
// every ~11 days) translates into uncontrolled-robot seconds.
package main

import (
	"fmt"
	"sort"
	"time"

	"symfail/internal/core"
	"symfail/internal/phone"
	"symfail/internal/sim"
	"symfail/internal/symbos"
)

// robot is the host-side consumer of the phone's command stream.
type robot struct {
	lastCommand sim.Time
	commands    int

	// Reconstructed hazards: stream gaps longer than the watchdog.
	hazards   []time.Duration
	watchdog  time.Duration
	safeStops int
}

// noteCommand records a command refresh, closing any open gap.
func (r *robot) noteCommand(at sim.Time) {
	if r.commands > 0 {
		gap := at.Sub(r.lastCommand)
		if gap > r.watchdog {
			// The robot ran uncontrolled from the last command until the
			// watchdog tripped, then safe-stopped until the stream came
			// back.
			r.hazards = append(r.hazards, r.watchdog)
			r.safeStops++
		}
	}
	r.commands++
	r.lastCommand = at
}

func main() {
	const (
		commandPeriod = 5 * time.Second
		watchdog      = 30 * time.Second
		months        = 6
	)

	eng := sim.NewEngine()
	dev := phone.NewDevice("operator-phone", eng, phone.DefaultConfig(2007))
	core.Install(dev, core.Config{})

	bot := &robot{watchdog: watchdog}

	// The tele-operation application: installed at every boot, it streams
	// command refreshes from an Active Object driven by an RTimer — the
	// same machinery every other app on the phone uses, so a freeze stops
	// it exactly the way a freeze stops everything.
	dev.OnBoot(func(d *phone.Device) {
		k := d.Kernel()
		proc := k.StartProcess("RobotLink", false)
		t := proc.Main()
		var ao *symbos.ActiveObject
		var tm *symbos.Timer
		ao = t.NewActiveObject("command-stream", 8, func(int) {
			bot.noteCommand(d.Now())
			tm.After(commandPeriod)
		})
		tm = symbos.NewTimer(ao)
		k.Exec(t, func() { tm.After(commandPeriod) })
	})

	dev.Enroll(sim.Epoch)
	if err := eng.Run(sim.Epoch.Add(months * 30 * 24 * time.Hour)); err != nil {
		fmt.Println("run:", err)
		return
	}
	dev.Finalize()

	o := dev.Oracle()
	fmt.Printf("six months of tele-operation from one phone (%.0f on-hours):\n\n", o.ObservedHours)
	fmt.Printf("commands streamed:        %d (every %v while the phone is up)\n", bot.commands, commandPeriod)
	fmt.Printf("phone failures:           %d freezes, %d self-shutdowns\n",
		o.Count(phone.TruthFreeze), o.Count(phone.TruthSelfShutdown))
	fmt.Printf("other stream interrupts:  %d user power-offs, %d low-battery\n",
		o.Count(phone.TruthUserShutdown), o.Count(phone.TruthLowBattery))
	fmt.Printf("\nhazard windows (robot uncontrolled until its %v watchdog): %d\n",
		watchdog, len(bot.hazards))
	var uncontrolled time.Duration
	for _, h := range bot.hazards {
		uncontrolled += h
	}
	fmt.Printf("total uncontrolled-robot time: %v (then safe-stopped %d times)\n",
		uncontrolled, bot.safeStops)
	perMonth := float64(len(bot.hazards)) / months
	fmt.Printf("hazard rate: %.1f per month\n", perMonth)

	// The gap distribution: most interruptions are long (night power-offs)
	// but every single one of them starts with a full watchdog window of
	// uncontrolled motion.
	gaps := interruptGaps(o)
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	if len(gaps) > 0 {
		fmt.Printf("\nstream-outage durations: median %v, p90 %v, max %v\n",
			gaps[len(gaps)/2].Round(time.Second),
			gaps[int(float64(len(gaps)-1)*0.9)].Round(time.Second),
			gaps[len(gaps)-1].Round(time.Second))
	}

	fmt.Println("\nthe paper's conclusion, quantified: everyday dependability (a failure")
	fmt.Println("every ~11 days) is fine for phone calls and \"indicates potential")
	fmt.Println("limitations in using smart phones for critical applications\".")
}

// interruptGaps reconstructs phone-down intervals from the oracle.
func interruptGaps(o *phone.Oracle) []time.Duration {
	var gaps []time.Duration
	var downAt sim.Time = sim.Never
	for _, e := range o.Events {
		switch e.Kind {
		case phone.TruthBoot:
			if downAt != sim.Never {
				gaps = append(gaps, e.Time.Sub(downAt))
				downAt = sim.Never
			}
		case phone.TruthFreeze, phone.TruthSelfShutdown, phone.TruthUserShutdown, phone.TruthLowBattery:
			if downAt == sim.Never {
				downAt = e.Time
			}
		}
	}
	return gaps
}
