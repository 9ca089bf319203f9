package mix

import "testing"

// TestSplitMix64Vectors pins the finalizer on fixed inputs: structure
// values, shard hashing, ring positions and trial seeds all derive from it.
func TestSplitMix64Vectors(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0},
		{1, 0x5692161d100b05e5},
		{0x9e3779b97f4a7c15, 0xe220a8397b1dcdaf},
	} {
		if got := SplitMix64(c.in); got != c.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
