package sorting

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/relation"
)

// checkColumnsAgainstStdlib verifies a columnar sort output against the
// stdlib baseline: identical keys in identical positions, and the
// (key, payload) pairs a multiset-permutation of the input. The columnar
// sort is unstable, so payload positions within equal-key groups may
// differ from the stdlib order — SameMultiset is the right comparison.
func checkColumnsAgainstStdlib(t *testing.T, name string, input []relation.Tuple, keys, pays []uint64) {
	t.Helper()
	want := append([]relation.Tuple(nil), input...)
	SortStdlib(want)
	if len(keys) != len(want) || len(pays) != len(want) {
		t.Fatalf("%s: length changed: %d -> keys %d, pays %d", name, len(want), len(keys), len(pays))
	}
	for i := range keys {
		if keys[i] != want[i].Key {
			t.Fatalf("%s: key mismatch at %d: got %d, stdlib %d", name, i, keys[i], want[i].Key)
		}
	}
	got := make([]relation.Tuple, len(keys))
	batch.Interleave(keys, pays, got)
	if !relation.SameMultiset(input, got) {
		t.Fatalf("%s: output is not a permutation of input", name)
	}
}

// sortTuplesChecked runs SortTuplesIntoColumns into destinations and perm
// scratch that are `slack` elements longer than the input, and checks the
// result against the stdlib baseline, that the source is untouched and that
// the slack past len(input) is never written.
func sortTuplesChecked(t *testing.T, name string, input []relation.Tuple, perm []int32, slack int) {
	t.Helper()
	const sentinel = 0xDEADBEEF
	n := len(input)
	src := append([]relation.Tuple(nil), input...)
	keys := make([]uint64, n+slack)
	pays := make([]uint64, n+slack)
	for i := n; i < n+slack; i++ {
		keys[i], pays[i] = sentinel, sentinel
	}
	SortTuplesIntoColumns(src, keys, pays, perm)
	checkColumnsAgainstStdlib(t, name, input, keys[:n], pays[:n])
	if !IsSortedKeys(keys[:n]) {
		t.Fatalf("%s: keys left unsorted", name)
	}
	for i := range src {
		if src[i] != input[i] {
			t.Fatalf("%s: SortTuplesIntoColumns modified its source at %d", name, i)
		}
	}
	for i := n; i < n+slack; i++ {
		if keys[i] != sentinel || pays[i] != sentinel {
			t.Fatalf("%s: wrote past the input length at %d", name, i)
		}
	}
}

// TestSortColumnsDifferential runs the columnar sort against the stdlib
// baseline over the adversarial distributions at sizes spanning the insertion
// cutoff, the cache-leaf threshold and multi-level recursion, with and without
// caller-provided (oversized) scratch and destinations.
func TestSortColumnsDifferential(t *testing.T) {
	sizes := []int{0, 1, 3, insertionCutoff, cacheLeafTuples - 1, cacheLeafTuples + 1, 3 * cacheLeafTuples, 20000}
	for _, n := range sizes {
		for name, input := range adversarialDistributions(max(n, 1), int64(n)) {
			input = input[:n]
			sortTuplesChecked(t, name, input, nil, 0)
			sortTuplesChecked(t, name+"(scratch)", input, make([]int32, n+5), 3)
		}
	}
}

// TestSortPackedFinishingBranches drives the packed sort's finishing branches
// that uniform inputs of a few thousand tuples never reach, and the tandem
// fallback's radix recursion, each with a key shape whose bucket structure is
// derived in its comment: the first digit covers the top 8 bits of
// maxKey<<idxBits|n-1, each later level the next 8, and a bucket of 65..4096
// values takes a wb = min(12, bits.Len(len)) bit counting scatter.
func TestSortPackedFinishingBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := []struct {
		name string
		n    int
		key  func(i int) uint64
	}{
		// Top digit = c<<2 for four values of c: four first-level buckets of
		// ~32K values, so the American-flag level 2 runs and leaves buckets of
		// ~128 values for 7- and 8-bit scatters.
		{"level2", 1 << 17, func(int) uint64 {
			return uint64(21*rng.Intn(4))<<26 | uint64(rng.Intn(1<<24))
		}},
		// Uniform 32-bit keys, ~96 values per first-level bucket: 7 bits.
		{"wide7", 96 * 256, func(int) uint64 { return uint64(rng.Uint32()) }},
		// Uniform 32-bit keys, ~384 values per first-level bucket: 9 bits.
		{"wide9", 384 * 256, func(int) uint64 { return uint64(rng.Uint32()) }},
		// Top digit = c<<2 for 40 values of c: ~3300 values per first-level
		// bucket, the full 12-bit scatter.
		{"wide12", 1 << 17, func(int) uint64 {
			return uint64(rng.Intn(40))<<26 | uint64(rng.Intn(1<<24))
		}},
		// One key repeated 200 times among uniform keys: its bucket's digit
		// holds more than packedLeafCutoff values at every key level, so the
		// scatter refuses and the recursion descends into the index bits.
		{"skew-refusal", 1 << 16, func(i int) uint64 {
			if i%327 == 0 {
				return 0x9E3779B9
			}
			return uint64(rng.Uint32())
		}},
		// All keys 300: one first-level bucket, then 128 buckets of 1024 at
		// shift 10, below their 11-bit width — the flag recursion finishes.
		{"shift-below-width-flag", 1 << 17, func(int) uint64 { return 300 }},
		// All keys 42: four first-level buckets of 32K, each split into 256
		// buckets of 128 at shift 7, below their 8-bit width and the radix
		// digit — the standard library finishes.
		{"shift-below-width-stdlib", 1 << 17, func(int) uint64 { return 42 }},
		// Full-width keys cannot pack, and four top digits leave first-level
		// buckets of ~4096 values: the tandem key/perm fallback recurses.
		{"tandem-level2", 1 << 14, func(int) uint64 {
			return uint64(rng.Intn(4))<<62 | rng.Uint64()>>8
		}},
	}
	for _, s := range shapes {
		input := make([]relation.Tuple, s.n)
		for i := range input {
			input[i] = relation.Tuple{Key: s.key(i), Payload: uint64(i)}
		}
		sortTuplesChecked(t, s.name, input, nil, 0)
	}
}

// TestSortColumnsPermOnDemand pins the scratch contract of
// SortTuplesIntoColumnsWith: keys narrow enough to pack never ask for the
// permutation buffer, full-width keys ask for it exactly once, with the
// input length, and still sort correctly.
func TestSortColumnsPermOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		name     string
		key      func() uint64
		wantAsks int
	}{
		{"packed", func() uint64 { return rng.Uint64() >> 32 }, 0},
		{"tandem", func() uint64 { return rng.Uint64() | 1<<63 }, 1},
	} {
		n := 3 * cacheLeafTuples
		input := make([]relation.Tuple, n)
		for i := range input {
			input[i] = relation.Tuple{Key: tc.key(), Payload: uint64(i)}
		}
		keys, pays := make([]uint64, n), make([]uint64, n)
		asks := 0
		SortTuplesIntoColumnsWith(input, keys, pays, func(m int) []int32 {
			asks++
			if m != n {
				t.Fatalf("%s: permFor(%d), want %d", tc.name, m, n)
			}
			return make([]int32, m)
		})
		if asks != tc.wantAsks {
			t.Fatalf("%s: permFor called %d times, want %d", tc.name, asks, tc.wantAsks)
		}
		checkColumnsAgainstStdlib(t, tc.name, input, keys, pays)
	}
}

// TestSortColumnsPayloadPairing pins that the payload column really is
// permuted in tandem with the keys (not merely a multiset of payloads): with
// unique keys the pairing is fully determined.
func TestSortColumnsPayloadPairing(t *testing.T) {
	const n = 10000
	input := make([]relation.Tuple, n)
	for i := range input {
		k := uint64(i)*2654435761 + 12345 // unique keys, scrambled order
		input[i] = relation.Tuple{Key: k, Payload: k ^ 0xABCDEF}
	}
	keys := make([]uint64, n)
	pays := make([]uint64, n)
	SortTuplesIntoColumns(input, keys, pays, nil)
	for i := range keys {
		if pays[i] != keys[i]^0xABCDEF {
			t.Fatalf("payload decoupled from key at %d: key %d, payload %d", i, keys[i], pays[i])
		}
	}
}

// FuzzSortColumnsDifferential fuzzes the columnar sort against the stdlib
// baseline, mirroring FuzzSortDifferential.
func FuzzSortColumnsDifferential(f *testing.F) {
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
		sortTuplesChecked(t, "SortTuplesIntoColumns", input, nil, 0)
		sortTuplesChecked(t, "SortTuplesIntoColumns(scratch)", input, make([]int32, n+2), 2)
	})
}
