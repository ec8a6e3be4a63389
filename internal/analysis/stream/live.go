package stream

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// LiveStudy is the live query tier of DESIGN.md §16: a concurrency-safe
// fold fed record by record from collect.ServerConfig.OnRecord and queried
// while the study is still running. The collection tier's acked ledger is
// the one dedup stage in front of the tap, so LiveStudy folds every
// delivery it is given (a supervisor resumed on an existing store, whose
// ledger starts empty, is the one case that re-delivers records).
//
// It keeps one state per device, in a list sorted by device ID, and the
// day fold. The day fold renders the windowed and decaying views; its
// counts do not depend on delivery order, but its uptime, and so the
// windowed and decaying MTBF, does (see window.go). The exact MTBF is what
// a Tables fed the same records would report: it reads each device's
// session bookkeeping, kept as a deviceCursor keeps it, and the freeze and
// self-shutdown counts. Delivery is not ordered, so a per-device order
// check guards it: an out-of-order record still feeds the day fold, but is
// left out of the exact MTBF (and counted in Reordered).
type LiveStudy struct {
	mu     sync.Mutex
	fold   *dayBuckets
	devs   map[string]*liveDevice
	sorted []*liveDevice // devs in ascending ID order

	// freezes and selfs count the in-order records' freezes and
	// self-shutdowns, the HL events the exact MTBF divides by.
	freezes, selfs int

	records   int // records observed
	reordered int // records left out of the exact MTBF
}

// liveDevice is LiveStudy's state of one device.
type liveDevice struct {
	id   string
	last int64 // latest in-order record time: the order guard
	// sessions is the uptime of the in-order records, kept as the
	// device's cursor in a Tables would keep it.
	sessions
	// foldSession is the day fold's open session start, over every
	// delivered record.
	foldSession sim.Time
}

// NewLiveStudy builds a live study with the given analysis thresholds.
func NewLiveStudy(cfg Config) *LiveStudy {
	return &LiveStudy{
		fold: newDayBuckets(cfg.WithDefaults()),
		devs: make(map[string]*liveDevice),
	}
}

// Observe folds one delivered record in. Safe for concurrent use; shaped to
// hang directly off collect.ServerConfig.OnRecord.
func (s *LiveStudy) Observe(deviceID string, r core.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.devs[deviceID]
	if d == nil {
		d = &liveDevice{
			id:          deviceID,
			last:        r.Time,
			sessions:    sessions{sessionStart: sim.Never},
			foldSession: sim.Never,
		}
		s.devs[deviceID] = d
		i, _ := slices.BinarySearchFunc(s.sorted, deviceID, func(d *liveDevice, id string) int {
			return strings.Compare(d.id, id)
		})
		s.sorted = slices.Insert(s.sorted, i, d)
	}
	s.records++
	s.fold.observe(&d.foldSession, r)
	if r.Time < d.last {
		s.reordered++
		return
	}
	d.last = r.Time
	if r.Kind != core.KindBoot {
		return
	}
	d.boot(r)
	switch r.Detected {
	case core.DetectedFreeze:
		s.freezes++
	case core.DetectedShutdown:
		if s.fold.cfg.selfShutdown(r.OffSeconds) {
			s.selfs++
		}
	}
}

// mtbf is the exact MTBF over the in-order records: the MTBF of a sealed
// Tables fed them. Like mtbfRed.hours it sums uptime in sorted device
// order, each device's open session closed at its last record (a cursor's
// lastSeen starts at 0, hence the floor).
func (s *LiveStudy) mtbf() MTBFReport {
	var hours float64
	for _, d := range s.sorted {
		hours += d.hours(sim.Time(max(d.last, 0)))
	}
	return MTBFOf(hours, s.freezes, s.selfs)
}

// ids returns the device IDs, sorted; nil before the first record.
func (s *LiveStudy) ids() []string {
	if len(s.sorted) == 0 {
		return nil
	}
	ids := make([]string, len(s.sorted))
	for i, d := range s.sorted {
		ids[i] = d.id
	}
	return ids
}

// Devices returns the number of devices observed so far.
func (s *LiveStudy) Devices() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sorted)
}

// Records returns the number of records observed so far.
func (s *LiveStudy) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Duplicates returns 0: LiveStudy drops no delivery, the collection tier's
// acked ledger having deduplicated the tap already. It stays for the
// clients that read it.
func (s *LiveStudy) Duplicates() int { return 0 }

// Reordered returns how many records the exact MTBF left out.
func (s *LiveStudy) Reordered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reordered
}

// Window returns the current windowed view (0 = configured window).
func (s *LiveStudy) Window(days int) *WindowSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.fold.window(days)
	snap.Devices = s.ids()
	return snap
}

// Decay returns the current exponentially-decaying view.
func (s *LiveStudy) Decay() *DecaySnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.fold.decay()
	snap.Devices = s.ids()
	return snap
}

// LiveStatus is the "status" query answer. Duplicates is always 0 (see
// LiveStudy.Duplicates).
type LiveStatus struct {
	Devices    int `json:"devices"`
	Records    int `json:"records"`
	Duplicates int `json:"duplicates"`
	Reordered  int `json:"reordered"`
}

// LiveMTBF is the "mtbf" query answer: the exact MTBF alongside the
// decaying view's, so a client sees both the whole-study and recency-biased
// numbers in one round-trip.
type LiveMTBF struct {
	Devices        int        `json:"devices"`
	MTBF           MTBFReport `json:"mtbf"`
	DecayMTBFHours float64    `json:"decayMtbfHours"`
	AsOfDay        int        `json:"asOfDay"`
}

// LivePanics is the "panics" query answer: the decaying panic-category
// leaderboard, most-recent-heavy first.
type LivePanics struct {
	AsOfDay int        `json:"asOfDay"`
	Total   float64    `json:"total"`
	Top     []DecayRow `json:"top"`
}

// LiveFreezeRate is the "freezerate" query answer over the last N days.
type LiveFreezeRate struct {
	FromDay       int     `json:"fromDay"`
	ToDay         int     `json:"toDay"`
	Records       int     `json:"records"`
	Freezes       int     `json:"freezes"`
	FreezesPerDay float64 `json:"freezesPerDay"`
	UptimeHours   float64 `json:"uptimeHours"`
	MTBFHours     float64 `json:"mtbfHours"`
}

// Query answers a named read-only query with compact single-line JSON —
// the collect.ServerConfig.Query hook. Supported:
//
//	status               device/record/reorder counters (duplicates 0)
//	mtbf                 exact and decaying MTBF
//	panics [n]           top-n decaying panic leaderboard (default 5)
//	freezerate [days]    windowed freeze rate over the last days (default
//	                     the configured Config.Window)
func (s *LiveStudy) Query(name string, args []string) (string, error) {
	v, err := s.answer(name, args)
	if err != nil {
		return "", err
	}
	blob, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return string(blob), nil
}

// answer computes a query answer under the lock.
func (s *LiveStudy) answer(name string, args []string) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch name {
	case "status":
		return LiveStatus{Devices: len(s.sorted), Records: s.records, Reordered: s.reordered}, nil
	case "mtbf":
		if len(args) != 0 {
			return nil, fmt.Errorf("stream: mtbf takes no arguments")
		}
		var dec DecaySnapshot
		s.fold.decayScalars(&dec)
		return LiveMTBF{
			Devices:        len(s.sorted),
			MTBF:           s.mtbf(),
			DecayMTBFHours: dec.MTBFHours,
			AsOfDay:        dec.AsOfDay,
		}, nil
	case "panics":
		n, err := optInt(args, 5)
		if err != nil {
			return nil, err
		}
		dec := s.fold.decay()
		top := dec.PanicTable
		if n > 0 && len(top) > n {
			top = top[:n]
		}
		return LivePanics{AsOfDay: dec.AsOfDay, Total: dec.Panics, Top: top}, nil
	case "freezerate":
		days, err := optInt(args, 0)
		if err != nil {
			return nil, err
		}
		w := s.fold.windowScalars(days)
		return LiveFreezeRate{
			FromDay:       w.FromDay,
			ToDay:         w.ToDay,
			Records:       w.Records,
			Freezes:       w.Freezes,
			FreezesPerDay: w.FreezesPerDay,
			UptimeHours:   w.UptimeHours,
			MTBFHours:     w.MTBF.MTBFHours,
		}, nil
	default:
		return nil, fmt.Errorf("stream: unknown query %q", name)
	}
}

// optInt parses the single optional integer argument of a query.
func optInt(args []string, def int) (int, error) {
	switch len(args) {
	case 0:
		return def, nil
	case 1:
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			return 0, fmt.Errorf("stream: bad query argument %q", args[0])
		}
		return n, nil
	default:
		return 0, fmt.Errorf("stream: too many query arguments")
	}
}
