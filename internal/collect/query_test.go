package collect

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"symfail/internal/sim"
)

// TestQueryVerb is the QUERY round-trip: the client's header reaches the
// hook verbatim and the hook's single-line answer comes back under OK.
func TestQueryVerb(t *testing.T) {
	srv, err := NewServerWith("127.0.0.1:0", NewDataset(), ServerConfig{
		Query: func(name string, args []string) (string, error) {
			switch name {
			case "echo":
				return fmt.Sprintf("{%q:%q}", "args", strings.Join(args, ",")), nil
			case "empty":
				return "", nil
			case "multiline":
				return "a\nb", nil
			default:
				return "", fmt.Errorf("unknown query %q", name)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	got, err := Query(srv.Addr(), "echo", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"args":"x,y"}`; got != want {
		t.Errorf("echo answer = %q, want %q", got, want)
	}
	if got, err := Query(srv.Addr(), "empty"); err != nil || got != "" {
		t.Errorf("empty answer = %q, %v; want \"\", nil", got, err)
	}
	if _, err := Query(srv.Addr(), "nope"); err == nil {
		t.Error("hook error did not surface to the client")
	}
	// A hook that breaks the single-line contract is refused server-side,
	// not smeared across the wire protocol.
	if _, err := Query(srv.Addr(), "multiline"); err == nil {
		t.Error("multi-line answer was not rejected")
	}
	if _, err := Query(srv.Addr(), "bad name"); err == nil {
		t.Error("whitespace query name was not rejected client-side")
	}
	if _, err := Query(srv.Addr(), "echo", "bad arg"); err == nil {
		t.Error("whitespace query argument was not rejected client-side")
	}
	if _, err := Query(srv.Addr(), "echo", strings.Repeat("a", MaxHeaderBytes)); err == nil {
		t.Error("over-long query header was not rejected client-side")
	}
}

// TestQueryWithoutHook: a server with no Query hook refuses the verb.
func TestQueryWithoutHook(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", NewDataset())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Query(srv.Addr(), "status"); err == nil {
		t.Error("server without a Query hook answered a QUERY")
	}
}

// TestQuerySurvivesSupervisorRestarts: the Query hook passes through
// SupervisorConfig to every incarnation, and because a QUERY is outside the
// request accounting it neither advances nor disturbs the kill schedule —
// the crash history stays exactly the no-queries one.
func TestQuerySurvivesSupervisorRestarts(t *testing.T) {
	// The hook runs on per-connection server goroutines; the counter is
	// atomic so the test itself is race-clean.
	var queries atomic.Int64
	ds := NewDataset()
	sup, err := NewSupervisor("127.0.0.1:0", ds, SupervisorConfig{
		Crash: CrashFaults{KillEveryMin: 2, KillEveryMax: 5},
		Rng:   sim.NewRand(1701),
		Query: func(name string, args []string) (string, error) {
			if name != "count" {
				return "", errors.New("unknown query")
			}
			return fmt.Sprintf("{\"queries\":%d}", queries.Add(1)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	// A request that lands on a dying incarnation gets no reply; real
	// clients retry, and so does the test.
	retry := func(op func() error) error {
		var err error
		for attempt := 0; attempt < 10; attempt++ {
			if err = op(); err == nil {
				return nil
			}
		}
		return err
	}
	if got, err := Query(sup.Addr(), "count"); err != nil || got != `{"queries":1}` {
		t.Fatalf("first query = %q, %v", got, err)
	}
	// Drive enough counted requests through the supervisor to cross several
	// injected kills, interleaving queries with the uploads.
	data := walTestRecords(1, 2)
	for i := 0; i < 12; i++ {
		if err := retry(func() error { return uploadLog(sup.Addr(), "q-dev", data) }); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		if err := retry(func() error { _, e := Query(sup.Addr(), "count"); return e }); err != nil {
			t.Fatalf("query after upload %d: %v", i, err)
		}
	}
	if sup.Crashes() == 0 {
		t.Fatal("no crashes injected — restarts were not exercised")
	}
	if queries.Load() < 13 {
		t.Errorf("hook answered %d queries, want at least 13", queries.Load())
	}
}
