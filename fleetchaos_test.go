package symfail

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"symfail/internal/collect"
	"symfail/internal/core"
)

// fleetChaosConfig is killChaosConfig with the collection tier sharded:
// three servers behind the device-hash router, fleet-level kill subsets
// drawn every 6-18 routed requests (any combination of shards and the
// router, at any crashpoint including the handoff/rebalance aborts), one
// shard joining after ~50 requests and one leaving after ~150 — a
// scale-up and a scale-down in the middle of the crossfire. Workers:4
// keeps the sharded engine in the mix — `make chaos-fleet` runs this
// under -race.
func fleetChaosConfig(seed uint64) FieldStudyConfig {
	cfg := killChaosConfig(seed)
	cfg.Servers = 3
	cfg.Adversity.FleetJoinAfter = 50
	cfg.Adversity.FleetLeaveAfter = 150
	return cfg
}

// TestFleetKillAnythingNoAcknowledgedDataLoss is PR 4's tentpole invariant
// lifted to the fleet: network faults, flash faults, shard kills, router
// kills, aborted handoffs and live membership churn all at once — and
// still, every record any incarnation of any shard ever acknowledged is
// present exactly once in the merged dataset.
func TestFleetKillAnythingNoAcknowledgedDataLoss(t *testing.T) {
	fs, err := RunFieldStudy(fleetChaosConfig(20070627))
	if err != nil {
		t.Fatal(err)
	}
	fl := fs.Collector
	defer fl.Close()

	if err := fl.Err(); err != nil {
		t.Fatalf("fleet failed to recover: %v", err)
	}
	// With write quorum W < R the last ACK can return while a lagging
	// replica incarnation is still mid-restart; let it land.
	if !fl.Quiesce(5 * time.Second) {
		t.Fatalf("restarts still in flight after 5s: crashes %d, restarts %d", fl.Crashes(), fl.Restarts())
	}
	// The run must have been adversarial on every fleet axis.
	if fl.Crashes() == 0 {
		t.Fatal("no shard crashes injected — the fleet harness is not killing anything")
	}
	if fl.Restarts() != fl.Crashes() {
		t.Errorf("crashes %d != restarts %d: a shard incarnation never came back",
			fl.Crashes(), fl.Restarts())
	}
	if fl.RouterKills() == 0 {
		t.Error("the router was never drawn into a kill subset")
	}
	if fl.RouterRestarts() != fl.RouterKills() {
		t.Errorf("router kills %d != router restarts %d", fl.RouterKills(), fl.RouterRestarts())
	}
	if fl.Handoffs() == 0 {
		t.Error("no dying shard ever handed state to a peer")
	}
	if got := fl.Epoch(); got < 2 {
		t.Errorf("epoch %d after a join and a leave, want >= 2", got)
	}
	if fl.Migrated() == 0 {
		t.Error("join/leave rebalancing migrated no devices")
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
			t.Errorf("%s: of %d acknowledged records, %d missing and %d duplicated after %d shard crashes and %d router kills",
				id, len(acked), missing, duplicated, fl.Crashes(), fl.RouterKills())
		}
	}

	// Recovery and handoff may only ever surface well-formed records.
	for id, recs := range fs.Dataset.AllRecords() {
		for _, r := range recs {
			if r.Kind != core.KindBoot && r.Kind != core.KindPanic {
				t.Errorf("%s: unknown record kind %q surfaced from fleet recovery: %+v", id, r.Kind, r)
			}
		}
	}
}

// computeFleetCrashFingerprint is computeServerCrashFingerprint on the
// fleet path: with Servers:1 it must be the exact PR 4 collector, so the
// golden fingerprint it produces must be byte-identical to the pinned one.
func computeFleetCrashFingerprint(t *testing.T, workers, servers int) crashFingerprint {
	t.Helper()
	cfg := serverCrashStudyConfig()
	cfg.Workers = workers
	cfg.Servers = servers
	fs, err := RunFieldStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fl := fs.Collector
	defer fl.Close()
	if err := fl.Err(); err != nil {
		t.Fatal(err)
	}
	rep := fs.Study.MTBF()
	fp := crashFingerprint{
		Crashes:     fl.Crashes(),
		Restarts:    fl.Restarts(),
		Compactions: fl.Compactions(),
	}
	fp.Panics = len(fs.Study.Panics())
	fp.Freezes = rep.Freezes
	fp.SelfShutdowns = rep.SelfShutdowns
	fp.ObservedHours = rep.ObservedHours
	for _, d := range fs.Fleet.Devices {
		fp.Boots += d.BootCount()
		fp.TornWrites += d.FS().TornWrites()
		fp.BitFlips += d.FS().BitFlips()
	}
	if ps := fs.Study.Panics(); len(ps) > 0 {
		fp.FirstPanicKey = ps[0].Key()
		fp.FirstPanicAt = int64(ps[0].Time)
	}
	for _, l := range fs.Loggers {
		fp.LogBytes += len(l.LogBytes())
	}
	for _, id := range fs.Dataset.Devices() {
		for _, r := range fs.Dataset.Records(id) {
			fp.Salvaged += r.LogSalvaged
			fp.Lost += r.LogLost
		}
	}
	fp.DatasetCRC = fs.Dataset.CRC32C()
	return fp
}

// TestFleetServers1DegeneratesToServerCrashGolden: a one-member fleet is
// not "approximately" the plain supervised collector. Its lone shard
// schedules its own kills with the same RNG consumption, and no router is
// in the path: the whole crash fingerprint, dataset CRC included, must be
// byte-identical to the pinned server-crash golden.
func TestFleetServers1DegeneratesToServerCrashGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_fingerprint_servercrash.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no server-crash golden (run `go test -run Golden -update .`): %v", err)
	}
	got := computeFleetCrashFingerprint(t, 1, 1)
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if !bytes.Equal(blob, want) {
		t.Errorf("one-server fleet drifted from the PR 4 golden.\n got: %s\nwant: %s\n"+
			"The one-member fleet must consume the RNG stream exactly as a plain supervisor does.",
			blob, want)
	}
}

// TestFleetEquivalenceSweep is the acceptance sweep: for both pinned golden
// studies, every server count in {1,2,3,5} and workers 1/2/4/8 — with a
// join and a leave armed whenever there is a router to count requests —
// the merged dataset CRC32C equals the pinned golden's DatasetCRC. Kills,
// handoffs, rebalances and sharding are all invisible in the collected
// bytes; that is the fleet's whole contract.
func TestFleetEquivalenceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("32 study runs; skipped in -short")
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
		for _, servers := range []int{1, 2, 3, 5} {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/servers=%d/workers=%d", g.name, servers, workers), func(t *testing.T) {
					cfg := g.cfg()
					cfg.Workers = workers
					cfg.Servers = servers
					if servers > 1 {
						cfg.Adversity.FleetJoinAfter = 40
						cfg.Adversity.FleetLeaveAfter = 120
					}
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
						t.Errorf("dataset CRC %d != pinned %s golden %d — sharding/kills/rebalancing leaked into the collected bytes",
							got, g.name, pinned.DatasetCRC)
					}
				})
			}
		}
	}
}

// TestFleetSweepTable measures what fleet adversity costs: for a fixed
// study, sweep kill rate × server count and tabulate crashes, router
// kills, handoffs, migrations and the recovered record count. Every cell's
// dataset CRC must equal the kill-free single-server baseline — the source
// of the EXPERIMENTS.md fleet-kill table.
func TestFleetSweepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is minutes of simulated uploads; skipped in -short")
	}
	type row struct {
		servers, killEvery          int
		crashes, routerKills        int
		handoffs, aborted, migrated int
		records                     int
		crc                         uint32
	}
	var rows []row
	for _, servers := range []int{1, 2, 3, 5} {
		for _, k := range []int{0, 24, 6} {
			cfg := adversityStudyConfig()
			cfg.Seed = 555555
			cfg.Workers = 1
			cfg.Servers = servers
			if servers > 1 {
				cfg.Adversity.FleetJoinAfter = 40
				cfg.Adversity.FleetLeaveAfter = 120
			}
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
			r := row{
				servers:     servers,
				killEvery:   k,
				crashes:     fl.Crashes(),
				routerKills: fl.RouterKills(),
				handoffs:    fl.Handoffs(),
				aborted:     fl.HandoffAborts(),
				migrated:    fl.Migrated(),
				crc:         fs.Dataset.CRC32C(),
			}
			for _, recs := range fs.Dataset.AllRecords() {
				r.records += len(recs)
			}
			fl.Close()
			rows = append(rows, r)
		}
	}

	t.Log("| servers | kill every ~N requests | shard crashes | router kills | handoffs | aborted | migrated | records recovered |")
	t.Log("|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		label := "off"
		if r.killEvery > 0 {
			label = fmt.Sprintf("%d", r.killEvery)
		}
		t.Logf("| %d | %s | %d | %d | %d | %d | %d | %d |",
			r.servers, label, r.crashes, r.routerKills, r.handoffs, r.aborted, r.migrated, r.records)
	}

	base := rows[0]
	if base.crashes != 0 || base.routerKills != 0 {
		t.Errorf("baseline row crashed (%d shard, %d router) with injection off", base.crashes, base.routerKills)
	}
	for _, r := range rows[1:] {
		if r.killEvery > 0 && r.crashes == 0 {
			t.Errorf("servers=%d kill-every-%d: no crashes fired", r.servers, r.killEvery)
		}
		if r.crc != base.crc {
			t.Errorf("servers=%d kill-every-%d: dataset CRC %08x != baseline %08x — fleet adversity changed what was collected",
				r.servers, r.killEvery, r.crc, base.crc)
		}
		if r.records != base.records {
			t.Errorf("servers=%d kill-every-%d: %d records recovered, baseline had %d",
				r.servers, r.killEvery, r.records, base.records)
		}
	}
}
