// Package mix holds the SplitMix64 finalizer, the one integer hash the
// simulator uses to spread keys over shards and ring positions, derive
// per-trial seeds and network jitter, and fill benchmark values.
package mix

// SplitMix64 is the SplitMix64 finalizer: a bijective 64-bit avalanche
// hash.
func SplitMix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
