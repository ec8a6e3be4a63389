package symfail

import (
	"symfail/internal/analysis"
	"symfail/internal/phone"
)

// DetectionReport scores the logger against the simulator's ground truth —
// the validation the original study could not perform (it had no oracle).
// Phones that were serviced are excluded from the freeze/self-shutdown
// comparison, because a master reset wipes their pre-service log from
// flash (run RunFieldStudy with Servers >= 1, whose periodic uploads keep
// that data server-side).
type DetectionReport struct {
	// PhonesCompared is the number of never-serviced phones scored.
	PhonesCompared int

	// Freeze detection: every battery-pulled freeze that was followed by
	// a reboot appears in the log; only a final, never-rebooted freeze can
	// be missed.
	TruthFreezes  int
	LoggedFreezes int
	FreezeRecall  float64

	// Self-shutdown identification through the reboot-duration threshold.
	TruthSelfShutdowns  int
	LoggedSelfShutdowns int
	SelfShutdownRatio   float64 // logged / truth (can exceed 1 on misclassification)

	// Panic capture: RDebug sees every panic, so this should be 1.0 even
	// on serviced phones as long as logs survive collection.
	TruthPanics      int
	LoggedPanics     int
	PanicCaptureRate float64
}

// ValidateDetection compares the analysed study against the fleet oracle.
func ValidateDetection(fs *FieldStudy) DetectionReport {
	var rep DetectionReport

	freezeByDevice := make(map[string]int)
	for _, hl := range fs.Study.HLEvents(analysis.HLFreeze) {
		freezeByDevice[hl.Device]++
	}
	selfByDevice := make(map[string]int)
	for _, hl := range fs.Study.HLEvents(analysis.HLSelfShutdown) {
		selfByDevice[hl.Device]++
	}
	panicsByDevice := make(map[string]int)
	for _, p := range fs.Study.Panics() {
		panicsByDevice[p.Device]++
	}

	for _, d := range fs.Fleet.Devices {
		rep.TruthPanics += d.Oracle().PanicCount()
		rep.LoggedPanics += panicsByDevice[d.ID()]
		if d.ServiceVisits() > 0 {
			continue
		}
		rep.PhonesCompared++
		rep.TruthFreezes += d.Oracle().Count(phone.TruthFreeze)
		rep.LoggedFreezes += freezeByDevice[d.ID()]
		rep.TruthSelfShutdowns += d.Oracle().Count(phone.TruthSelfShutdown)
		rep.LoggedSelfShutdowns += selfByDevice[d.ID()]
	}
	if rep.TruthFreezes > 0 {
		rep.FreezeRecall = float64(rep.LoggedFreezes) / float64(rep.TruthFreezes)
	}
	if rep.TruthSelfShutdowns > 0 {
		rep.SelfShutdownRatio = float64(rep.LoggedSelfShutdowns) / float64(rep.TruthSelfShutdowns)
	}
	if rep.TruthPanics > 0 {
		rep.PanicCaptureRate = float64(rep.LoggedPanics) / float64(rep.TruthPanics)
	}
	return rep
}
