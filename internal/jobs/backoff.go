package jobs

import (
	"math"
	"time"

	"roadpart/internal/linalg"
)

// Backoff is a capped exponential retry policy with deterministic
// seeded jitter. The schedule for a given (Seed, stream, attempt) is a
// pure function — no global RNG, no wall clock — so a retry schedule
// can be pinned in a test and reproduced exactly across restarts. The
// same policy paces job retries in the Manager and reconnects in the
// roadpart -watch SSE client.
//
// The zero value selects the defaults documented on each field.
type Backoff struct {
	// Base is the delay before the first retry. 0 selects 1s.
	Base time.Duration
	// Max caps the grown delay (applied before and after jitter so the
	// cap is hard). 0 selects 1m.
	Max time.Duration
	// Factor is the per-attempt growth multiplier. 0 selects 2.
	Factor float64
	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter)
	// times its nominal value, decorrelating retry herds without
	// sacrificing reproducibility. 0 selects 0.2; negative disables
	// jitter entirely.
	Jitter float64
	// Seed selects the deterministic jitter stream. Two policies with
	// the same Seed produce identical schedules for the same stream ids.
	Seed uint64
}

// normalized fills in the documented defaults.
func (b Backoff) normalized() Backoff {
	if b.Base <= 0 {
		b.Base = time.Second
	}
	if b.Max <= 0 {
		b.Max = time.Minute
	}
	if b.Factor <= 0 {
		b.Factor = 2
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	return b
}

// Delay returns the pause before retry number attempt (1-based: the
// delay between the first failure and the second attempt is
// Delay(stream, 1)). stream distinguishes concurrent consumers of one
// policy — the Manager passes the job's fingerprint, so two jobs
// retrying in lockstep still spread out — while keeping each stream's
// schedule deterministic.
func (b Backoff) Delay(stream uint64, attempt int) time.Duration {
	b = b.normalized()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(b.Base) * math.Pow(b.Factor, float64(attempt-1))
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 {
		// One SplitMix64 draw over (seed, stream, attempt) → uniform in
		// [0,1); one mix is enough to decorrelate the structured inputs.
		rng := linalg.RNGFromState(b.Seed ^ stream ^ (uint64(attempt) * linalg.RNGIncrement))
		u := rng.Float64()
		d *= 1 - b.Jitter + 2*b.Jitter*u
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}
