// Package rng provides a deterministic, splittable pseudo-random number
// generator so that every experiment in the repository is exactly
// reproducible from a seed, independent of iteration order or the Go
// runtime's map randomization.
//
// The generator is xoshiro256** seeded through SplitMix64, the
// construction recommended by the xoshiro authors. Split derives an
// independent stream from a parent stream and a label, which lets each
// subsystem (loss sampling, workload generation, failure injection...)
// own its stream without coordinating seeds.
package rng

import "math"

// Rand is a deterministic random stream. The zero value is not usable;
// construct with New or Split.
type Rand struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from the given seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro requires a nonzero state; SplitMix64 output of any seed is
	// astronomically unlikely to be all zero, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent stream labelled by the given string. Two
// Splits of the same parent with different labels produce uncorrelated
// streams; the same label always produces the same stream, so adding a
// new consumer does not perturb existing ones.
func (r *Rand) Split(label string) *Rand {
	// Hash the label FNV-1a style, then mix with a snapshot of the
	// parent's state (not advancing it).
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	seed := h ^ r.s[0] ^ (r.s[2] << 1)
	return New(seed)
}

// Clone returns an independent copy of the stream at its current
// position: the clone and the original produce the same future values
// but advance separately. It exists so a pristine prototype (a fabric,
// a loss model) can be duplicated per Monte-Carlo trial with exactly
// the state a freshly seeded construction would have.
func (r *Rand) Clone() *Rand {
	c := *r
	return &c
}

// State returns the stream's current internal state — its exact
// position in the xoshiro256** sequence. Together with SetState it
// lets a checkpoint serialize a stream mid-run and resume it so the
// continuation draws exactly the values the uninterrupted stream
// would have.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState overwrites the stream's internal state with one captured
// by State. An all-zero state is invalid for xoshiro and is bumped to
// the same guard value New uses.
func (r *Rand) SetState(s [4]uint64) {
	r.s = s
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
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

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill
	// here; modulo bias is negligible for the small n used in the
	// simulator, but reject to keep the stream exactly uniform anyway.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// NormFloat64 returns a standard normal sample using the Box-Muller
// polar method (Marsaglia).
//
// Normal builds on it; it is public beside Float64 and Intn as a
// standard draw.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a normal sample with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Exp returns an exponential sample with the given mean. It panics if
// mean <= 0.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with mean <= 0")
	}
	// 1-Float64() is in (0, 1], so Log never sees zero.
	return -mean * math.Log(1-r.Float64())
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided
// swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
