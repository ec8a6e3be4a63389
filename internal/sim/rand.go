package sim

import (
	"math"
	"time"
)

// Rand is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). It is the only source of randomness
// in the simulation; seeding it identically reproduces a run bit-for-bit.
//
// The zero value is not useful; construct with NewRand.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via SplitMix64, so that
// nearby seeds still yield well-separated streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent child generator. The child stream is a pure
// function of the parent state at the time of the call, so the order of
// Split calls is part of the deterministic contract.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpDuration returns an exponentially distributed duration with the given
// mean (a Poisson-process inter-arrival time).
func (r *Rand) ExpDuration(mean time.Duration) time.Duration {
	return time.Duration(r.Exp(float64(mean)))
}

// Norm returns a normally distributed value (Box–Muller).
func (r *Rand) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// NormDuration returns a normally distributed duration clamped at min.
func (r *Rand) NormDuration(mean, stddev, min time.Duration) time.Duration {
	d := time.Duration(r.Norm(float64(mean), float64(stddev)))
	if d < min {
		return min
	}
	return d
}

// LogNormal returns a log-normally distributed value parameterised by the
// median and a multiplicative spread sigma (the stddev of the underlying
// normal in log space).
func (r *Rand) LogNormal(median, sigma float64) float64 {
	return median * math.Exp(sigma*r.Norm(0, 1))
}

// LogNormalDuration returns a log-normally distributed duration with the
// given median and log-space sigma.
func (r *Rand) LogNormalDuration(median time.Duration, sigma float64) time.Duration {
	return time.Duration(r.LogNormal(float64(median), sigma))
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success (support {0,1,2,...}); used for burst lengths.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 0
	}
	n := 0
	for !r.Bool(p) {
		n++
		if n > 1<<20 { // defensive bound; unreachable for sane p
			break
		}
	}
	return n
}

// Shuffle permutes the first n elements using swap (Fisher–Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// WeightedIndex returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. All-zero or empty weights return -1.
func (r *Rand) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	// Floating-point slack: fall back to the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}
