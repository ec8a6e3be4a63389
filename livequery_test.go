package symfail

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"
	"time"

	"symfail/internal/analysis/stream"
	"symfail/internal/collect"
	"symfail/internal/core"
	"symfail/internal/phone"
)

// sortedStrings returns the map's keys in sorted order.
func sortedStrings(m map[string][]core.Record) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TestLiveStudyAcrossServerCrashes is the tap contract under real crashes,
// on the single durable server and on a replicated 3-shard fleet. The
// collection tier is killed mid-study, so unacked records are tapped at
// rewinds and acked later, and the fleet's replica shards take custody of
// every record. The acked ledger must tap each record exactly once: the
// LiveStudy wired to the tap, which keeps no dedup set of its own, must end
// with exactly the record set the final merged dataset holds, and answer
// its queries from it.
func TestLiveStudyAcrossServerCrashes(t *testing.T) {
	for _, servers := range []int{1, 3} {
		t.Run(fmt.Sprintf("servers=%d", servers), func(t *testing.T) {
			live := stream.NewLiveStudy(stream.Config{})
			cfg := FieldStudyConfig{
				Seed:        20070801,
				Phones:      6,
				Duration:    3 * phone.StudyMonth,
				JoinWindow:  phone.StudyMonth / 2,
				UploadEvery: 3 * 24 * time.Hour,
				Servers:     servers,
				LiveStudy:   live,
			}
			cfg.Adversity.ServerCrash = collect.CrashFaults{KillEveryMin: 6, KillEveryMax: 18}
			cfg.Adversity.ServerCompactWAL = 64 << 10

			fs, err := RunFieldStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			col := fs.Collector
			defer col.Close()
			if col.Crashes() == 0 {
				t.Fatal("no server crashes injected — the at-least-once replay path was not exercised")
			}

			all := fs.Dataset.AllRecords()
			total, devices := 0, 0
			for _, recs := range all {
				if len(recs) > 0 {
					devices++
				}
				total += len(recs)
			}

			// Each record is tapped once: a missed tap or a duplicate
			// delivery would move the live record count.
			if live.Records() != total {
				t.Errorf("live study saw %d records, dataset holds %d", live.Records(), total)
			}

			// The live windowed view must equal the day fold of the final
			// dataset byte for byte. Its counts fold in any order; its
			// uptime pairs each boot with the boot delivered before it on
			// the same device, so this also checks that each device's
			// boots reached the tap in log order.
			batch := stream.NewLiveStudy(stream.Config{})
			for _, id := range sortedStrings(all) {
				for _, r := range all[id] {
					batch.Observe(id, r)
				}
			}
			gotW, _ := json.Marshal(live.Window(0))
			wantW, _ := json.Marshal(batch.Window(0))
			if string(gotW) != string(wantW) {
				t.Errorf("live windowed view diverged from batch fold of the dataset:\n got %s\nwant %s", gotW, wantW)
			}

			// When every delivery arrived in per-device time order, the exact
			// MTBF of the mtbf answer equals that of the sealed batch Tables
			// of the final dataset too (fed the way analysis.New feeds it:
			// sorted devices, stable time order).
			if live.Reordered() == 0 {
				tables := stream.NewTables(stream.Config{})
				for _, id := range sortedStrings(all) {
					tables.AddDevice(id)
					recs := append([]core.Record(nil), all[id]...)
					sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
					for _, r := range recs {
						tables.Observe(id, r)
					}
				}
				sealed, dec := tables.Tables(), batch.Decay()
				want, _ := json.Marshal(stream.LiveMTBF{
					Devices:        len(sealed.Devices),
					MTBF:           sealed.MTBF,
					DecayMTBFHours: dec.MTBFHours,
					AsOfDay:        dec.AsOfDay,
				})
				if got, err := live.Query("mtbf", nil); err != nil || got != string(want) {
					t.Errorf("live mtbf answer diverged from the batch fold despite in-order delivery:\n got %s (%v)\nwant %s", got, err, want)
				}
			}

			// The query answers come from the same state.
			out, err := live.Query("status", nil)
			if err != nil {
				t.Fatalf("status query: %v", err)
			}
			var st stream.LiveStatus
			if err := json.Unmarshal([]byte(out), &st); err != nil {
				t.Fatalf("status answer %q: %v", out, err)
			}
			if st.Records != total || st.Devices != devices {
				t.Errorf("status query reports %d records on %d devices; dataset holds %d on %d",
					st.Records, st.Devices, total, devices)
			}
			for _, q := range []string{"mtbf", "panics", "freezerate"} {
				if out, err := live.Query(q, nil); err != nil || !json.Valid([]byte(out)) {
					t.Errorf("query %s: %q, %v", q, out, err)
				}
			}

			// Every record the collection tier acknowledged is in the dataset.
			for id := range all {
				recs := make(map[string]bool)
				for _, r := range fs.Dataset.Records(id) {
					recs[string(core.EncodeRecord(r))] = true
				}
				for _, k := range col.AckedKeys(id) {
					if !recs[k] {
						t.Errorf("device %s: acked record missing from the dataset: %s", id, k)
					}
				}
			}
		})
	}
}
