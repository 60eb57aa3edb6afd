package sorting

import (
	"encoding/binary"
	"fmt"
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

// sortTuplesChecked sorts input through SortTuplesIntoColumnsWith's dispatch
// with the production bucket-local threshold and, for inputs below it, again
// with the threshold lowered to 0 so inputs of any size reach the
// bucket-local finish — into destinations and perm scratch that are `slack`
// elements longer than the input. It checks each result against the stdlib
// baseline, that the source is untouched and that the slack past len(input)
// is never written.
func sortTuplesChecked(t *testing.T, name string, input []relation.Tuple, perm []int32, slack int) {
	t.Helper()
	const sentinel = 0xDEADBEEF
	n := len(input)
	localMins := []int{localMinTuples}
	if n < localMinTuples {
		localMins = append(localMins, 0)
	}
	for _, localMin := range localMins {
		name := fmt.Sprintf("%s(localMin=%d)", name, localMin)
		src := append([]relation.Tuple(nil), input...)
		keys := make([]uint64, n+slack)
		pays := make([]uint64, n+slack)
		for i := n; i < n+slack; i++ {
			keys[i], pays[i] = sentinel, sentinel
		}
		sortColumns(src, keys, pays, permScratch(perm), localMin)
		checkColumnsAgainstStdlib(t, name, input, keys[:n], pays[:n])
		if !IsSortedKeys(keys[:n]) {
			t.Fatalf("%s: keys left unsorted", name)
		}
		for i := range src {
			if src[i] != input[i] {
				t.Fatalf("%s: the sort modified its source at %d", name, i)
			}
		}
		for i := n; i < n+slack; i++ {
			if keys[i] != sentinel || pays[i] != sentinel {
				t.Fatalf("%s: wrote past the input length at %d", name, i)
			}
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
// maxKey<<idxBits|n-1 (shift = bits.Len(maxKey)+idxBits-8), each later level
// the next 8, and a bucket of 65..4096 values takes a
// wb = min(12, bits.Len(len)) bit counting scatter. A first-level bucket is
// bucket-local when the input holds at least localMin tuples, shift >= idxBits
// and the bucket holds at most stageCap values; the derivations assume the
// lowered localMin 0 of sortTuplesChecked's second sort, whose first sort
// (production localMinTuples) keeps every bucket below 2^20 tuples on
// source-index packing. Above 4096 values a bucket-local bucket takes the
// out-of-place level 2 into the staging buffer, and every other bucket the
// in-place American-flag level 2.
func TestSortPackedFinishingBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := []struct {
		name string
		n    int
		key  func(i int) uint64
	}{
		// Uniform 32-bit keys at 2^21: idxBits 21, shift 45, so the digit is
		// key>>24 and all 256 buckets (~8192 values) are bucket-local above
		// 4096 — the out-of-place level 2 runs in the staging buffer and
		// leaves buckets of ~32 values for 5- and 6-bit scatters.
		{"local-level2", 1 << 21, func(int) uint64 { return uint64(rng.Uint32()) }},
		// Top digit = c<<2 for four values of c: four buckets of ~32K values,
		// whose level 2 (in the staging buffer, or in place under the
		// production threshold) leaves buckets of ~128 values for 7- and
		// 8-bit scatters.
		{"level2", 1 << 17, func(int) uint64 {
			return uint64(21*rng.Intn(4))<<26 | uint64(rng.Intn(1<<24))
		}},
		// 5 of 8 keys carry top byte 0xAB at 2^18 (idxBits 18, shift 42, digit
		// key>>24): that bucket holds ~164K > stageCap values and keeps
		// source-index packing — the in-place American-flag level 2 and the
		// gather from src — beside 255 bucket-local buckets of ~384.
		{"mixed-hot-digit", 1 << 18, func(i int) uint64 {
			if i%8 < 5 {
				return 0xAB<<24 | uint64(rng.Intn(1<<24))
			}
			return uint64(rng.Uint32())
		}},
		// Keys below 128 at 2^17: bits.Len(maxKey) = 7, so shift = 16 <
		// idxBits = 17 and the first digit takes the top index bit — every
		// bucket (~512 values, one per key and index half) keeps
		// source-index packing and finishes with a 9- or 10-bit scatter.
		{"narrow-domain", 1 << 17, func(int) uint64 { return uint64(rng.Intn(128)) }},
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
		// scatter refuses and the recursion descends into the locator bits.
		{"skew-refusal", 1 << 16, func(i int) uint64 {
			if i%327 == 0 {
				return 0x9E3779B9
			}
			return uint64(rng.Uint32())
		}},
		// All keys 300 at 2^17: shift 18 >= idxBits 17 and one first-level
		// bucket of 2^17 = stageCap values; its level 2 leaves 128 buckets
		// of 1024 at shift 10, below their 11-bit width — the flag recursion
		// finishes them, in the staging buffer when the bucket is local.
		{"shift-below-width-flag", 1 << 17, func(int) uint64 { return 300 }},
		// All keys 42: shift 15 < idxBits 17, so four source-index buckets
		// of 32K, each split into 256 buckets of 128 at shift 7, below their
		// 8-bit width and the radix digit — the standard library finishes.
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

// countingScratch is a Scratch that records the size of every request.
type countingScratch struct {
	perms, stages []int
}

func (s *countingScratch) Perm(n int) []int32 {
	s.perms = append(s.perms, n)
	return make([]int32, n)
}

func (s *countingScratch) Stage(m int) []uint64 {
	s.stages = append(s.stages, m)
	return make([]uint64, m)
}

// TestSortColumnsPermOnDemand pins the scratch contract of
// SortTuplesIntoColumnsWith: keys narrow enough to pack never ask for the
// permutation buffer; they ask for at most one staging buffer of at most
// stageCap values, whatever the distribution (skewed and all-equal keys
// included), and only when the input holds at least localMinTuples tuples;
// packed inputs of at most minRadixSize tuples ask for nothing even with the
// bucket-local threshold lowered to 0. Full-width keys ask for the
// permutation exactly once, with the input length, at every size, and never
// for a stage. Every sort still matches the stdlib order.
func TestSortColumnsPermOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sortCounted := func(name string, input []relation.Tuple, localMin int) *countingScratch {
		t.Helper()
		n := len(input)
		keys, pays := make([]uint64, n), make([]uint64, n)
		sc := &countingScratch{}
		sortColumns(input, keys, pays, sc, localMin)
		checkColumnsAgainstStdlib(t, name, input, keys, pays)
		return sc
	}
	tuples := func(n int, key func() uint64) []relation.Tuple {
		input := make([]relation.Tuple, n)
		for i := range input {
			input[i] = relation.Tuple{Key: key(), Payload: uint64(i)}
		}
		return input
	}
	packed := func() uint64 { return rng.Uint64() >> 32 }
	wide := func() uint64 { return rng.Uint64() | 1<<63 }

	for _, n := range []int{2, minRadixSize, 3 * cacheLeafTuples} {
		sc := sortCounted("tandem", tuples(n, wide), localMinTuples)
		if len(sc.perms) != 1 || sc.perms[0] != n || len(sc.stages) != 0 {
			t.Fatalf("tandem n=%d: asked for perm %v, stage %v; want perm [%d] only", n, sc.perms, sc.stages, n)
		}
	}
	for _, n := range []int{1, minRadixSize} {
		if sc := sortCounted("packed", tuples(n, packed), 0); len(sc.perms)+len(sc.stages) != 0 {
			t.Fatalf("packed n=%d: asked for perm %v, stage %v; want nothing", n, sc.perms, sc.stages)
		}
	}
	for _, tc := range []struct{ n, localMin, stages int }{
		{3 * cacheLeafTuples, localMinTuples, 0},
		{3 * cacheLeafTuples, 0, 1},
		{localMinTuples, localMinTuples, 1},
	} {
		sc := sortCounted("packed", tuples(tc.n, packed), tc.localMin)
		if len(sc.perms) != 0 || len(sc.stages) != tc.stages {
			t.Fatalf("packed n=%d localMin=%d: asked for perm %v, stage %v; want %d stages", tc.n, tc.localMin, sc.perms, sc.stages, tc.stages)
		}
	}

	// Skewed and all-equal inputs this large put more than stageCap values
	// in one first-level bucket; the stage stays capped.
	for name, input := range adversarialDistributions(2*stageCap+minRadixSize, 14) {
		sc := sortCounted(name, input, 0)
		if len(sc.perms)+len(sc.stages) > 1 || len(sc.stages) == 1 && sc.stages[0] > stageCap {
			t.Fatalf("%s: asked for perm %v, stage %v; want at most one buffer, a stage of at most %d", name, sc.perms, sc.stages, stageCap)
		}
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
// baseline, mirroring FuzzSortDifferential; fuzzColumnTuples decodes the
// input.
func FuzzSortColumnsDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.MaxUint64))
	seed := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(1)<<(8*uint(i)))
	}
	f.Add(seed)
	// One expanded seed per key shape, of 5*stageCap/4 tuples: enough for
	// the hot digit of the last shape to exceed stageCap.
	const size = 5*stageCap/4 - minRadixSize
	for shape := range fuzzShapes {
		expanded := []byte{size & 0xFF, size >> 8 & 0xFF, size >> 16, byte(shape)}
		for i := 0; i < 16; i++ {
			expanded = binary.LittleEndian.AppendUint64(expanded, uint64(i+1)*0x9E3779B97F4A7C15)
		}
		f.Add(expanded)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		input := fuzzColumnTuples(data)
		n := len(input)
		sortTuplesChecked(t, "SortTuplesIntoColumns", input, nil, 0)
		sortTuplesChecked(t, "SortTuplesIntoColumns(scratch)", input, make([]int32, n+2), 2)
	})
}

// fuzzShapes turn one 64-bit word of fuzz material into a key, one shape per
// kind of first-level bucket the packed sort builds; the bucket-local kinds
// need sortTuplesChecked's lowered threshold at these sizes.
var fuzzShapes = []func(w uint64) uint64{
	// Full width: the tandem fallback whenever a top bit is set.
	func(w uint64) uint64 { return w },
	// 32-bit keys: small bucket-local buckets.
	func(w uint64) uint64 { return w >> 32 },
	// Four top digits (see the level2 shape of
	// TestSortPackedFinishingBranches): bucket-local buckets above 4096
	// values take the out-of-place level 2.
	func(w uint64) uint64 { return 21*(w>>62)<<26 | w>>8&(1<<24-1) },
	// Keys below 128: the first digit takes an index bit, so every bucket
	// keeps source-index packing.
	func(w uint64) uint64 { return w % 128 },
	// 7 of 8 keys share one top digit, which exceeds stageCap above ~150K
	// tuples and keeps source-index packing beside bucket-local buckets.
	func(w uint64) uint64 {
		if w&7 != 0 {
			return 0xAB<<24 | w>>40
		}
		return w >> 32
	},
}

// fuzzColumnTuples decodes a fuzz input into tuples. Inputs of at most 64
// bytes map directly onto len/8 keys. Longer ones would need more than 16 KiB
// to reach the radix path that way, which the fuzzer rarely builds, so they
// are expanded instead: bytes 0..2 pick n in [minRadixSize, 2*stageCap],
// byte 3 picks a key shape, and the remaining bytes, read as 8-byte words,
// are cycled into n keys — each later cycle mixed with its round number so
// the keys do not merely repeat.
func fuzzColumnTuples(data []byte) []relation.Tuple {
	if len(data) <= 64 {
		input := make([]relation.Tuple, len(data)/8)
		for i := range input {
			input[i] = relation.Tuple{Key: binary.LittleEndian.Uint64(data[i*8:]), Payload: uint64(i)}
		}
		return input
	}
	size := int(data[0]) | int(data[1])<<8 | int(data[2])<<16
	n := minRadixSize + size%(2*stageCap-minRadixSize+1)
	shape := fuzzShapes[int(data[3])%len(fuzzShapes)]
	words := data[4:]
	m := len(words) / 8
	input := make([]relation.Tuple, n)
	for i := range input {
		w := binary.LittleEndian.Uint64(words[i%m*8:]) ^ uint64(i/m)*0x9E3779B97F4A7C15
		input[i] = relation.Tuple{Key: shape(w), Payload: uint64(i)}
	}
	return input
}
