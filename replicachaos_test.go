package symfail

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"symfail/internal/collect"
	"symfail/internal/core"
)

// replicaChaosConfig is fleetChaosConfig with write-time quorum replication
// on: every ACK covers R durable copies and needs W of them WAL-synced,
// the fleet detects its own failures by heartbeat instead of trusting the
// kill harness, and below-quorum windows refuse writes with retryable
// ERRs the uploader's backoff absorbs. `make chaos-replica` runs the
// kill-anything variant under -race.
func replicaChaosConfig(seed uint64, r, w int) FieldStudyConfig {
	cfg := fleetChaosConfig(seed)
	cfg.Replicate = r
	cfg.Quorum = w
	return cfg
}

// TestReplicaKillAnythingNoAcknowledgedDataLoss is the quorum tentpole
// under full crossfire: kills over {shards, router} at every crashpoint,
// aborted handoffs, a join and a leave — with R=3/W=2 replication in the
// write path and the heartbeat detector doing the failure detection. The
// invariant is unchanged (every acknowledged record exactly once), and on
// top of it: restarts balance crashes, and no shard is ever *confirmed*
// dead — every kill here restarts, so the detector may suspect freely but
// confirmation requires process-level evidence that never materialises.
func TestReplicaKillAnythingNoAcknowledgedDataLoss(t *testing.T) {
	fs, err := RunFieldStudy(replicaChaosConfig(20070627, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	fl := fs.Collector
	defer fl.Close()

	if err := fl.Err(); err != nil {
		t.Fatalf("fleet failed to recover: %v", err)
	}
	// W < R: the last ACK can return while a lagging replica incarnation
	// is still mid-restart; let it land before balancing the ledger.
	if !fl.Quiesce(5 * time.Second) {
		t.Fatalf("restarts still in flight after 5s: crashes %d, restarts %d", fl.Crashes(), fl.Restarts())
	}

	if fl.ReplicationFactor() != 3 || fl.WriteQuorum() != 2 {
		t.Fatalf("resolved R=%d W=%d, want R=3 W=2", fl.ReplicationFactor(), fl.WriteQuorum())
	}
	if fl.Crashes() == 0 {
		t.Fatal("no shard crashes injected — the harness is not killing anything")
	}
	if fl.Restarts() != fl.Crashes() {
		t.Errorf("crashes %d != restarts %d: a shard incarnation never came back",
			fl.Crashes(), fl.Restarts())
	}
	if fl.RouterKills() == 0 {
		t.Error("the router was never drawn into a kill subset")
	}
	if fl.Suspicions() == 0 {
		t.Error("the failure detector never suspected anyone across the kill schedule")
	}
	if fl.ConfirmedDead() != 0 {
		t.Errorf("%d shards confirmed dead — every kill here restarts, so confirmation means a healthy shard was declared dead",
			fl.ConfirmedDead())
	}
	if got := fl.Epoch(); got < 2 {
		t.Errorf("epoch %d after a join and a leave, want >= 2", got)
	}

	for _, d := range fs.Fleet.Devices {
		id := d.ID()
		counts := make(map[string]int)
		for _, r := range fs.Dataset.Records(id) {
			counts[string(core.EncodeRecord(r))]++
		}
		acked := fl.AckedKeys(id)
		if len(acked) == 0 {
			t.Errorf("%s: no record was ever acknowledged", id)
		}
		missing, duplicated := 0, 0
		for _, key := range acked {
			switch counts[key] {
			case 1:
			case 0:
				missing++
			default:
				duplicated++
			}
		}
		if missing > 0 || duplicated > 0 {
			t.Errorf("%s: of %d acknowledged records, %d missing and %d duplicated under R=3/W=2 crossfire",
				id, len(acked), missing, duplicated)
		}
	}
}

// TestReplicaEquivalenceSweep is the acceptance sweep: for both pinned
// golden studies, R in {1,2,3} (R=1 being the pre-quorum fleet — nil
// hooks, byte-identical router) and workers 1/4 on three shards with a
// join and a leave armed, the merged dataset CRC32C equals the pinned
// golden's. Replication only adds copies and the merge is canonical, so
// quorum machinery must be invisible in the collected bytes.
func TestReplicaEquivalenceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("12 study runs; skipped in -short")
	}
	goldens := []struct {
		name string
		cfg  func() FieldStudyConfig
		file string
	}{
		{"adversity", adversityStudyConfig, "golden_fingerprint_adversity.json"},
		{"servercrash", serverCrashStudyConfig, "golden_fingerprint_servercrash.json"},
	}
	for _, g := range goldens {
		var pinned struct {
			DatasetCRC uint32 `json:"datasetCRC"`
		}
		blob, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatalf("no %s golden: %v", g.name, err)
		}
		if err := json.Unmarshal(blob, &pinned); err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{1, 2, 3} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/R=%d/workers=%d", g.name, r, workers), func(t *testing.T) {
					cfg := g.cfg()
					cfg.Workers = workers
					cfg.Servers = 3
					cfg.Replicate = r
					cfg.Adversity.FleetJoinAfter = 40
					cfg.Adversity.FleetLeaveAfter = 120
					fs, err := RunFieldStudy(cfg)
					if err != nil {
						t.Fatal(err)
					}
					fl := fs.Collector
					defer fl.Close()
					if err := fl.Err(); err != nil {
						t.Fatal(err)
					}
					if got := fs.Dataset.CRC32C(); got != pinned.DatasetCRC {
						t.Errorf("dataset CRC %d != pinned %s golden %d — R=%d replication leaked into the collected bytes",
							got, g.name, pinned.DatasetCRC, r)
					}
				})
			}
		}
	}
}

// TestReplicaSweepTable measures what quorum replication costs and catches:
// kill rate × R on three shards, tabulating crashes, repairs, suspicions
// (false ones separately), below-quorum windows and the recovered record
// count. Every cell's CRC must equal the kill-free R=1 baseline — the
// source of the EXPERIMENTS.md quorum table.
func TestReplicaSweepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is minutes of simulated uploads; skipped in -short")
	}
	type row struct {
		r, killEvery          int
		crashes               int
		suspicions, falseSusp int
		confirmed, repairs    int
		degradedWins          int
		records               int
		crc                   uint32
	}
	var rows []row
	for _, r := range []int{1, 2, 3} {
		for _, k := range []int{0, 24, 6} {
			cfg := adversityStudyConfig()
			cfg.Seed = 555555
			cfg.Workers = 1
			cfg.Servers = 3
			cfg.Replicate = r
			cfg.Adversity.FleetJoinAfter = 40
			cfg.Adversity.FleetLeaveAfter = 120
			if k > 0 {
				cfg.Adversity.ServerCrash = collect.CrashFaults{KillEveryMin: k / 2, KillEveryMax: k + k/2}
				cfg.Adversity.ServerCompactWAL = 32 << 10
			}
			fs, err := RunFieldStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fl := fs.Collector
			if err := fl.Err(); err != nil {
				t.Fatal(err)
			}
			if !fl.Quiesce(5 * time.Second) {
				t.Fatalf("restarts still in flight after 5s: crashes %d, restarts %d", fl.Crashes(), fl.Restarts())
			}
			rw := row{
				r:            r,
				killEvery:    k,
				crashes:      fl.Crashes(),
				suspicions:   fl.Suspicions(),
				falseSusp:    fl.FalseSuspicions(),
				confirmed:    fl.ConfirmedDead(),
				repairs:      fl.Repairs(),
				degradedWins: fl.DegradedWindows(),
				crc:          fs.Dataset.CRC32C(),
			}
			for _, recs := range fs.Dataset.AllRecords() {
				rw.records += len(recs)
			}
			fl.Close()
			rows = append(rows, rw)
		}
	}

	t.Log("| R | kill every ~N requests | shard crashes | suspicions | false | confirmed dead | repairs | below-quorum windows | records lost |")
	t.Log("|---|---|---|---|---|---|---|---|---|")
	base := rows[0]
	for _, rw := range rows {
		label := "off"
		if rw.killEvery > 0 {
			label = fmt.Sprintf("%d", rw.killEvery)
		}
		lost := base.records - rw.records
		t.Logf("| %d | %s | %d | %d | %d | %d | %d | %d | %d |",
			rw.r, label, rw.crashes, rw.suspicions, rw.falseSusp, rw.confirmed, rw.repairs, rw.degradedWins, lost)
	}

	if base.crashes != 0 {
		t.Errorf("baseline row crashed %d times with injection off", base.crashes)
	}
	for _, rw := range rows[1:] {
		if rw.killEvery > 0 && rw.crashes == 0 {
			t.Errorf("R=%d kill-every-%d: no crashes fired", rw.r, rw.killEvery)
		}
		if rw.crc != base.crc {
			t.Errorf("R=%d kill-every-%d: dataset CRC %08x != baseline %08x — replication changed what was collected",
				rw.r, rw.killEvery, rw.crc, base.crc)
		}
		if rw.records != base.records {
			t.Errorf("R=%d kill-every-%d: %d records recovered, baseline had %d",
				rw.r, rw.killEvery, rw.records, base.records)
		}
		if rw.confirmed != 0 {
			t.Errorf("R=%d kill-every-%d: %d shards confirmed dead in a restart-everything schedule",
				rw.r, rw.killEvery, rw.confirmed)
		}
	}
}
