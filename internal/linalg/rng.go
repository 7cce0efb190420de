package linalg

import "math"

// RNG is the repository's one deterministic pseudo-random stream, a
// SplitMix64 generator. Every randomized stage draws from it — network
// and traffic generation, the sampled κ-sweep of Algorithm 1, the
// k-means restarts and the Lanczos start vectors of Algorithm 3, the
// multilevel matching order and the job retry jitter — each from its
// own seed derivation (docs/NUMERICS.md § Determinism).
type RNG struct{ state uint64 }

// RNGIncrement is the fixed state advance per draw. A stream skips n
// draws by adding n·RNGIncrement to its raw state, which is how the
// k-means restarts start at their offsets without replaying the draws
// before them.
const RNGIncrement = 0x9e3779b97f4a7c15

// RNGFromState returns a generator whose raw state is state; its first
// draw mixes state+RNGIncrement.
func RNGFromState(state uint64) RNG { return RNG{state: state} }

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += RNGIncrement
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1), rounded by an explicit
// conversion so that it never fuses into a caller's sum.
func (r *RNG) Float64() float64 { return float64(float64(r.Uint64()>>11) / (1 << 53)) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("linalg: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills out with a Fisher–Yates shuffle of 0..len(out)-1,
// consuming exactly the draws Perm would. It allocates nothing.
func (r *RNG) PermInto(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
