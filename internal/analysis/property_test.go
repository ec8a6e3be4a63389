package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"symfail/internal/core"
	"symfail/internal/sim"
)

// quickSeed seeds every quick.Check of this package's tests, so a failing
// input replays.
const quickSeed = 2007

// quickConfig draws maxCount inputs from a generator seeded with quickSeed.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(quickSeed))}
}

// randomDataset builds a random-but-plausible per-device record set.
func randomDataset(seed uint64) map[string][]core.Record {
	r := sim.NewRand(seed)
	ds := make(map[string][]core.Record)
	devices := 1 + r.Intn(4)
	for d := 0; d < devices; d++ {
		id := string(rune('a' + d))
		recs := []core.Record{{Kind: core.KindBoot, Time: 0, Boot: 1, Detected: core.DetectedFirstBoot}}
		now := sim.Epoch
		boot := 1
		for i := 0; i < 5+r.Intn(40); i++ {
			now = now.Add(time.Duration(r.Exp(float64(6 * time.Hour))))
			if r.Bool(0.4) {
				recs = append(recs, core.Record{
					Kind: core.KindPanic, Time: int64(now),
					Category: []string{"KERN-EXEC", "USER", "E32USER-CBase"}[r.Intn(3)],
					PType:    r.Intn(100),
					Activity: []string{"voice-call", "message", "unspecified"}[r.Intn(3)],
					Apps:     []string{"Messages"}[:r.Intn(2)],
				})
				continue
			}
			boot++
			off := r.Exp(float64(10 * time.Minute))
			detected := core.DetectedShutdown
			prev := core.BeatReboot
			if r.Bool(0.3) {
				detected = core.DetectedFreeze
				prev = core.BeatAlive
			}
			bootAt := now.Add(time.Duration(off))
			recs = append(recs, core.Record{
				Kind: core.KindBoot, Time: int64(bootAt), Boot: boot,
				Detected: detected, PrevBeat: prev, PrevTime: int64(now),
				OffSeconds: time.Duration(off).Seconds(),
			})
			now = bootAt
		}
		ds[id] = recs
	}
	return ds
}

func TestPropertyCoalescenceInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(randomDataset(seed), Options{})
		st := s.Coalesce()
		if st.RelatedPanics > st.TotalPanics {
			return false
		}
		if st.ToFreeze+st.ToSelfShutdown != st.RelatedPanics {
			return false
		}
		// Per-category counts sum to the totals.
		var rel, tot int
		for _, rc := range st.ByCategory {
			rel += rc.Related
			tot += rc.Total
		}
		return rel == st.RelatedPanics && tot == st.TotalPanics
	}
	if err := quick.Check(f, quickConfig(40)); err != nil {
		t.Error(err)
	}
}

func TestPropertyBurstPartition(t *testing.T) {
	// Bursts partition the panics: the burst sizes, weighted by count,
	// sum to the total number of panics.
	f := func(seed uint64) bool {
		s := New(randomDataset(seed), Options{})
		st := s.Bursts()
		sum := 0
		for size, count := range st.SizeCounts {
			sum += size * count
		}
		return sum == st.TotalPanics
	}
	if err := quick.Check(f, quickConfig(40)); err != nil {
		t.Error(err)
	}
}

func TestPropertyWindowMonotonicity(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(randomDataset(seed), Options{})
		points := s.WindowSweep([]time.Duration{
			time.Second, time.Minute, 10 * time.Minute, time.Hour, 6 * time.Hour,
			s.Options().CoalescenceWindow,
		})
		prev := -1
		for _, p := range points[:len(points)-1] {
			if p.Related < prev {
				return false
			}
			prev = p.Related
		}
		// At the configured window the sweep relates exactly the panics
		// the device cursor coalesced.
		return points[len(points)-1].Related == s.Coalesce().RelatedPanics
	}
	if err := quick.Check(f, quickConfig(30)); err != nil {
		t.Error(err)
	}
}

func TestPropertyUptimeNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(randomDataset(seed), Options{})
		per, total := s.UptimeHours()
		var sum float64
		for _, h := range per {
			if h < 0 {
				return false
			}
			sum += h
		}
		// Summation order differs (map iteration vs sorted), so compare
		// with a relative tolerance.
		diff := sum - total
		if diff < 0 {
			diff = -diff
		}
		return total >= 0 && diff <= 1e-9*(1+total)
	}
	if err := quick.Check(f, quickConfig(40)); err != nil {
		t.Error(err)
	}
}

func TestPropertyThresholdMonotonicity(t *testing.T) {
	// More generous thresholds can only grow the self-shutdown count.
	f := func(seed uint64) bool {
		ds := randomDataset(seed)
		prev := -1
		for _, thr := range []time.Duration{time.Second, time.Minute, 10 * time.Minute, time.Hour} {
			s := New(ds, Options{SelfShutdownThreshold: thr})
			n := len(s.HLEvents(HLSelfShutdown))
			if n < prev {
				return false
			}
			prev = n
		}
		return true
	}
	if err := quick.Check(f, quickConfig(30)); err != nil {
		t.Error(err)
	}
}
