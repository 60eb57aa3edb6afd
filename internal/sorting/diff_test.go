package sorting

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// adversarialDistributions generates the key distributions the ISSUE names as
// radix-sort stress cases: degenerate digit histograms (all-equal, 2-value),
// presorted directions, keys with only high bits set (≥ 2^56, exercising the
// deepest digit levels), and a zipf-skewed distribution whose buckets are
// maximally unbalanced.
func adversarialDistributions(n int, seed int64) map[string][]relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1.0, 1<<30)
	out := map[string][]relation.Tuple{
		"all-equal":       make([]relation.Tuple, n),
		"reverse-sorted":  make([]relation.Tuple, n),
		"two-value":       make([]relation.Tuple, n),
		"high-bits":       make([]relation.Tuple, n),
		"zipf":            make([]relation.Tuple, n),
		"uniform-64":      make([]relation.Tuple, n),
		"uniform-32":      make([]relation.Tuple, n),
		"tiny-domain":     make([]relation.Tuple, n),
		"sorted-plateaus": make([]relation.Tuple, n),
		"bucket-skew":     make([]relation.Tuple, n),
	}
	for i := 0; i < n; i++ {
		p := uint64(i)
		out["all-equal"][i] = relation.Tuple{Key: 42, Payload: p}
		out["reverse-sorted"][i] = relation.Tuple{Key: uint64(n - i), Payload: p}
		out["two-value"][i] = relation.Tuple{Key: uint64(i & 1), Payload: p}
		out["high-bits"][i] = relation.Tuple{Key: uint64(1)<<56 | rng.Uint64()>>8<<8 | uint64(i&0xFF), Payload: p}
		out["zipf"][i] = relation.Tuple{Key: zipf.Uint64(), Payload: p}
		out["uniform-64"][i] = relation.Tuple{Key: rng.Uint64(), Payload: p}
		out["uniform-32"][i] = relation.Tuple{Key: rng.Uint64() >> 32, Payload: p}
		out["tiny-domain"][i] = relation.Tuple{Key: rng.Uint64() % 7, Payload: p}
		out["sorted-plateaus"][i] = relation.Tuple{Key: uint64(i / 64), Payload: p}
		// High byte spreads the top radix digit into mid-size buckets whose
		// middle key bits are all zero — every value in the bucket shares the
		// next wide digit, forcing the packed sort's counting-scatter refusal.
		out["bucket-skew"][i] = relation.Tuple{Key: uint64(rng.Intn(256))<<36 | uint64(rng.Intn(3)), Payload: p}
	}
	// Push a few keys to the extremes of the domain.
	for _, name := range []string{"high-bits", "uniform-64"} {
		out[name][0].Key = math.MaxUint64
		out[name][n-1].Key = 0
	}
	return out
}

// checkAgainstStdlib sorts a copy with the stdlib baseline and requires the
// candidate output to carry identical keys in identical positions and to be a
// permutation of the input.
func checkAgainstStdlib(t *testing.T, name string, input, got []relation.Tuple) {
	t.Helper()
	want := append([]relation.Tuple(nil), input...)
	SortStdlib(want)
	if len(got) != len(want) {
		t.Fatalf("%s: length changed: %d -> %d", name, len(want), len(got))
	}
	for i := range got {
		if got[i].Key != want[i].Key {
			t.Fatalf("%s: key mismatch at %d: got %d, stdlib %d", name, i, got[i].Key, want[i].Key)
		}
	}
	if !relation.SameMultiset(input, got) {
		t.Fatalf("%s: output is not a permutation of input", name)
	}
}

// TestSortDifferential runs Sort, SortInto and SortOneLevel
// against the stdlib baseline over the adversarial distributions at sizes
// spanning the insertion cutoff, the cache-leaf threshold and multi-level
// recursion.
func TestSortDifferential(t *testing.T) {
	sizes := []int{3, insertionCutoff, cacheLeafTuples - 1, cacheLeafTuples + 1, 3 * cacheLeafTuples, 20000}
	for _, n := range sizes {
		for name, input := range adversarialDistributions(n, int64(n)) {
			work := append([]relation.Tuple(nil), input...)
			Sort(work)
			checkAgainstStdlib(t, name+"/Sort", input, work)

			src := append([]relation.Tuple(nil), input...)
			dst := make([]relation.Tuple, n+3) // tolerate oversized destinations
			SortInto(src, dst)
			checkAgainstStdlib(t, name+"/SortInto", input, dst[:n])
			if !relation.SameMultiset(src, input) {
				t.Fatalf("%s: SortInto modified its source", name)
			}

			work = append(work[:0], input...)
			SortOneLevel(work)
			checkAgainstStdlib(t, name+"/SortOneLevel", input, work)
		}
	}
}

// FuzzSortDifferential is the fuzz form of the differential test: arbitrary
// byte strings decode into tuple slices (8-byte keys), which every sorting
// routine must order identically to the stdlib baseline.
func FuzzSortDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.MaxUint64))
	seed := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(1)<<(8*uint(i)))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		input := make([]relation.Tuple, n)
		for i := 0; i < n; i++ {
			input[i] = relation.Tuple{Key: binary.LittleEndian.Uint64(data[i*8:]), Payload: uint64(i)}
		}

		work := append([]relation.Tuple(nil), input...)
		Sort(work)
		checkAgainstStdlib(t, "Sort", input, work)

		dst := make([]relation.Tuple, n)
		SortInto(input, dst)
		checkAgainstStdlib(t, "SortInto", input, dst)

	})
}

// TestSortIntoExactSize pins the contract that only dst[:len(src)] is
// touched.
func TestSortIntoExactSize(t *testing.T) {
	src := makeTuples(5000, 9, 1<<32)
	dst := make([]relation.Tuple, len(src)+10)
	sentinel := relation.Tuple{Key: math.MaxUint64, Payload: 0xDEAD}
	for i := len(src); i < len(dst); i++ {
		dst[i] = sentinel
	}
	SortInto(src, dst)
	checkAgainstStdlib(t, "SortInto", src, dst[:len(src)])
	for i := len(src); i < len(dst); i++ {
		if dst[i] != sentinel {
			t.Fatalf("SortInto wrote past len(src) at %d", i)
		}
	}
}
