package stream

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"symfail/internal/core"
)

// LiveStudy is the live query tier of DESIGN.md §16: a concurrency-safe
// composite of the exact Tables and the windowed/decaying views, fed record
// by record from collect.ServerConfig.OnRecord and queried while the study
// is still running. Because the collection tap is at-least-once and only
// per-device ordered, LiveStudy deduplicates by serialized record and
// guards the cursor-fed Tables behind a per-device order check. The
// duplicates come from three sources the server's own acked ledger cannot
// see: a record tapped unacked at a stream rewind or FIN and acked later,
// each of a fleet's R replica shards tapping the record through its own
// HANDOFF, and a supervisor resumed on an existing store, whose ledger
// starts empty. UPLOAD and HANDOFF payloads carry no stream offset, so the
// ledger is keyed by record bytes rather than (device, offset). A fresh but
// out-of-order record still feeds the order-insensitive windowed and
// decaying folds, but is excluded from the exact tables (and counted in
// Reordered) rather than corrupting their cursor state.
type LiveStudy struct {
	mu     sync.Mutex
	cfg    Config
	tables *Tables
	window *WindowAcc
	decay  *DecayAcc

	// seen is the dedup ledger: device -> serialized record -> true.
	seen map[string]map[string]bool
	// lastTime guards the exact tables' per-device time order.
	lastTime map[string]int64

	records   int // distinct records observed
	dups      int // duplicate deliveries dropped
	reordered int // fresh records excluded from the exact tables
}

// NewLiveStudy builds a live study with the given analysis thresholds.
func NewLiveStudy(cfg Config) *LiveStudy {
	cfg = cfg.WithDefaults()
	return &LiveStudy{
		cfg:      cfg,
		tables:   NewTables(cfg),
		window:   NewWindowAcc(cfg),
		decay:    NewDecayAcc(cfg),
		seen:     make(map[string]map[string]bool),
		lastTime: make(map[string]int64),
	}
}

// Observe folds one delivered record in. Safe for concurrent use; shaped to
// hang directly off collect.ServerConfig.OnRecord.
func (s *LiveStudy) Observe(deviceID string, r core.Record) {
	key := string(core.AppendRecordLine(nil, r))
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.seen[deviceID]
	if recs == nil {
		recs = make(map[string]bool)
		s.seen[deviceID] = recs
		s.tables.AddDevice(deviceID)
		s.lastTime[deviceID] = r.Time
	}
	if recs[key] {
		s.dups++
		return
	}
	recs[key] = true
	s.records++
	s.window.Observe(deviceID, r)
	s.decay.Observe(deviceID, r)
	if r.Time >= s.lastTime[deviceID] {
		s.lastTime[deviceID] = r.Time
		s.tables.Observe(deviceID, r)
	} else {
		s.reordered++
	}
}

// Records returns the number of distinct records observed so far.
func (s *LiveStudy) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Duplicates returns how many replayed deliveries were dropped.
func (s *LiveStudy) Duplicates() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dups
}

// Reordered returns how many fresh records the exact tables excluded.
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
	return s.window.Stats(days)
}

// Decay returns the current epoch's exponentially-decaying view.
func (s *LiveStudy) Decay() *DecaySnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decay.Snapshot().(*DecaySnapshot)
}

// LiveStatus is the "status" query answer.
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
//	status               device/record/duplicate/reorder counters
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
			Devices:    len(s.seen),
			Records:    s.records,
			Duplicates: s.dups,
			Reordered:  s.reordered,
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
