package sim

import "math"

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** seeded through splitmix64). The simulator carries its own
// generator rather than math/rand so that traces are reproducible across Go
// releases and so every scenario owns an independent stream.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given value. Any seed,
// including zero, yields a well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state deterministically from seed.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 expansion, the canonical way to seed xoshiro.
	for i := range r.s {
		seed += 0x9e3779b97f4a7c15
		r.s[i] = Mix64(seed)
	}
}

// Mix64 is the splitmix64 finalizer, a bijection on uint64 under which
// near-identical inputs land far apart. RNG seeding and every derived
// stream seed (per-hop injectors, churn streams, campaign replicates) go
// through it.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split returns a new generator seeded from this one's stream; use it to
// give independent components independent randomness derived from one
// scenario seed.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *RNG) ExpFloat64() float64 {
	// Inverse transform; u is in (0,1].
	u := 1 - r.Float64()
	return -math.Log(u)
}

// NormFloat64 returns a standard normal value (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle randomizes the order of n elements using the given swap func.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
