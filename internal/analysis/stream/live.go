package stream

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"symfail/internal/core"
)

// LiveStudy is the live query tier of DESIGN.md §16: a concurrency-safe
// composite of the exact Tables and one day fold rendering the windowed and
// decaying views, fed record by record from collect.ServerConfig.OnRecord
// and queried while the study is still running. The collection tier's
// acked ledger is the one dedup stage in front of the tap, so LiveStudy
// folds every delivery it is given (a supervisor resumed on an existing
// store, whose ledger starts empty, is the one case that re-delivers
// records). Delivery is not ordered, so LiveStudy guards the cursor-fed
// Tables behind a per-device order check: an out-of-order record still
// feeds the day fold, but is excluded from the exact tables (and counted
// in Reordered) rather than corrupting their cursor state. The day fold's
// counts do not depend on delivery order; its uptime, and so the windowed
// and decaying MTBF, does (see window.go).
type LiveStudy struct {
	mu     sync.Mutex
	tables *Tables
	fold   *dayBuckets

	// lastTime guards the exact tables' per-device time order; its keys
	// are the devices seen so far.
	lastTime map[string]int64

	records   int // records observed
	reordered int // records excluded from the exact tables
}

// NewLiveStudy builds a live study with the given analysis thresholds.
func NewLiveStudy(cfg Config) *LiveStudy {
	cfg = cfg.WithDefaults()
	return &LiveStudy{
		tables:   NewTables(cfg),
		fold:     newDayBuckets(cfg),
		lastTime: make(map[string]int64),
	}
}

// Observe folds one delivered record in. Safe for concurrent use; shaped to
// hang directly off collect.ServerConfig.OnRecord.
func (s *LiveStudy) Observe(deviceID string, r core.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	last, ok := s.lastTime[deviceID]
	if !ok {
		s.tables.AddDevice(deviceID)
		last = r.Time
	}
	s.records++
	s.fold.observe(deviceID, r)
	if r.Time >= last {
		s.lastTime[deviceID] = r.Time
		s.tables.Observe(deviceID, r)
	} else {
		s.reordered++
	}
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

// Reordered returns how many records the exact tables excluded.
func (s *LiveStudy) Reordered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reordered
}

// Tables returns the current epoch's exact table set.
func (s *LiveStudy) Tables() *TablesSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables.Snapshot().(*TablesSnapshot)
}

// Window returns the current epoch's windowed view (0 = configured window).
func (s *LiveStudy) Window(days int) *WindowSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.window(days)
}

// Decay returns the current epoch's exponentially-decaying view.
func (s *LiveStudy) Decay() *DecaySnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.decay()
}

// LiveStatus is the "status" query answer. Duplicates is always 0 (see
// LiveStudy.Duplicates).
type LiveStatus struct {
	Devices    int `json:"devices"`
	Records    int `json:"records"`
	Duplicates int `json:"duplicates"`
	Reordered  int `json:"reordered"`
}

// LiveMTBF is the "mtbf" query answer: the exact-tables MTBF alongside the
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
	var v any
	switch name {
	case "status":
		s.mu.Lock()
		v = LiveStatus{
			Devices:   len(s.lastTime),
			Records:   s.records,
			Reordered: s.reordered,
		}
		s.mu.Unlock()
	case "mtbf":
		if len(args) != 0 {
			return "", fmt.Errorf("stream: mtbf takes no arguments")
		}
		tbl := s.Tables()
		dec := s.Decay()
		v = LiveMTBF{
			Devices:        len(tbl.Devices),
			MTBF:           tbl.MTBF,
			DecayMTBFHours: dec.MTBFHours,
			AsOfDay:        dec.AsOfDay,
		}
	case "panics":
		n, err := optInt(args, 5)
		if err != nil {
			return "", err
		}
		dec := s.Decay()
		top := dec.PanicTable
		if n > 0 && len(top) > n {
			top = top[:n]
		}
		v = LivePanics{AsOfDay: dec.AsOfDay, Total: dec.Panics, Top: top}
	case "freezerate":
		days, err := optInt(args, 0)
		if err != nil {
			return "", err
		}
		w := s.Window(days)
		v = LiveFreezeRate{
			FromDay:       w.FromDay,
			ToDay:         w.ToDay,
			Records:       w.Records,
			Freezes:       w.Freezes,
			FreezesPerDay: w.FreezesPerDay,
			UptimeHours:   w.UptimeHours,
			MTBFHours:     w.MTBF.MTBFHours,
		}
	default:
		return "", fmt.Errorf("stream: unknown query %q", name)
	}
	blob, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return string(blob), nil
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
