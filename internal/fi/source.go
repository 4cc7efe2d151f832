package fi

import "math/rand"

// math/rand's additive lagged Fibonacci generator keeps rngLen state
// entries and reads the one rngTap places behind the one it feeds.
// Seeding fills the entries from the Lehmer generator
// x ← 48271·x mod (2³¹−1): entry i is the values at steps 21+3i, 22+3i and
// 23+3i, shifted and XORed with rngCooked[i].
const (
	rngLen    = 607
	rngTap    = 273
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
	// lehmerZero replaces a seed that reduces to zero, which would fix
	// the Lehmer generator at zero.
	lehmerZero = 89482311
)

// jumpPow[i] is 48271^(21+3i) mod (2³¹−1), the factor that takes the
// reduced seed to the first Lehmer value entry i reads.
var jumpPow = func() (pow [rngLen]uint64) {
	x := uint64(1)
	for range 21 {
		x = x * lehmerMul % lehmerMod
	}
	for i := range pow {
		pow[i] = x
		x = x * lehmerMul % lehmerMod * lehmerMul % lehmerMod * lehmerMul % lehmerMod
	}
	return pow
}()

// jumpSource is a rand.Source64 whose stream is exactly rand.NewSource's
// for the same seed, with an O(1) Seed. The first rngTap values read
// state entries no earlier value has fed back into: value k (from 1) is
// entry[rngLen-rngTap-k] + entry[rngLen-k] of the freshly seeded state,
// and each entry is computed on demand by jumping the Lehmer generator
// ahead with jumpPow. A stream longer than that seeds a full math/rand
// source and replays the values already taken.
type jumpSource struct {
	seed int64
	// x0 is the seed reduced as rngSource.Seed reduces it.
	x0 uint64
	// n counts the values taken since Seed, up to rngTap+1, which marks a
	// stream that full carries on.
	n    int
	full rand.Source64
}

// Seed restarts the stream at seed.
func (s *jumpSource) Seed(seed int64) {
	s.seed, s.n = seed, 0
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = lehmerZero
	}
	s.x0 = uint64(seed)
}

// entry returns state entry i as rngSource.Seed leaves it.
func (s *jumpSource) entry(i int) int64 {
	x := s.x0 * jumpPow[i] % lehmerMod
	u := int64(x) << 40
	x = x * lehmerMul % lehmerMod
	u ^= int64(x) << 20
	x = x * lehmerMul % lehmerMod
	return u ^ int64(x) ^ rngCooked[i]
}

// Uint64 returns the stream's next value.
func (s *jumpSource) Uint64() uint64 {
	if s.n < rngTap {
		s.n++
		return uint64(s.entry(rngLen-rngTap-s.n) + s.entry(rngLen-s.n))
	}
	if s.n == rngTap {
		// The next value reads an entry the first one fed back into.
		s.full = rand.NewSource(s.seed).(rand.Source64)
		for range rngTap {
			s.full.Uint64()
		}
		s.n++
	}
	return s.full.Uint64()
}

// Int63 returns the next value with its top bit cleared.
func (s *jumpSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
