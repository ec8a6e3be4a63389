// Fleetstudy: the paper's deployment end to end — 25 instrumented phones,
// 14 months, logs collected over a local TCP collection server, analysed
// into the section 6 headline numbers.
package main

import (
	"fmt"

	"symfail"
	"symfail/internal/analysis/stream"
	"symfail/internal/report"
)

func main() {
	cfg := symfail.DefaultFieldStudyConfig(2007)

	// Collect the Log Files over the network path, as the study's
	// automated transfer infrastructure did: one durable collection server
	// (Servers > 1 would shard the collection tier), fed by weekly uploads.
	// A LiveStudy on the server's record tap watches the data arrive.
	cfg.Servers = 1
	cfg.LiveStudy = stream.NewLiveStudy(cfg.Analysis)
	study, err := symfail.RunFieldStudy(cfg)
	if err != nil {
		fmt.Println("study:", err)
		return
	}
	srv := study.Collector
	defer srv.Close()

	fmt.Printf("collected %d uploads from %d phones (%.0f phone-hours observed)\n",
		srv.Uploads(), len(study.Fleet.Devices), study.Fleet.ObservedHours())
	fmt.Printf("the live record tap delivered %d distinct records\n\n", cfg.LiveStudy.Records())

	fmt.Println(report.MTBF(study.Study))
	fmt.Println(report.Figure2(study.Study))
	fmt.Println(report.Table2(study.Study))
}
