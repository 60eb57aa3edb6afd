package sorting

import (
	"repro/internal/memory"
	"repro/internal/relation"
)

// Columnar (structure-of-arrays) run generation for the batch execution path.
// SortTuplesIntoColumns normally takes the packed path (packed.go), which
// deinterleaves the payloads beside the packed keys in its first scatter and
// finishes each first-level bucket, payloads included, while the bucket is
// cache-resident. Its fallback, for keys too wide to share a uint64 with the
// source index, sorts the key column directly — in tandem with a permutation
// index column recording where each key came from — and gathers the payload
// column from the source afterwards in one separate pass. Per element the
// radix swap cycle then moves 12 bytes (8-byte key + 4-byte index) instead
// of the 16-byte tuple, and every histogram pass streams over a pure uint64
// column.
//
// The tandem routines reuse the machinery of sort.go unchanged in structure —
// the same digits, cutoffs, American-flag swap and IntroSort leaves — so the
// AoS and SoA paths stay behaviourally identical (same ordering guarantees,
// same instability) and differential tests can compare them directly.

// SortTuplesIntoColumns sorts an array-of-structs chunk into columnar form:
// dstKeys receives the keys in ascending order and dstPays the payloads in
// the same permutation. The AoS→SoA deinterleave is fused with the first
// radix digit — one sequential read of the 16-byte tuples feeding 256
// streaming write cursors — so the representation change costs no separate
// pass over the data. perm is optional scratch of at least
// len(src) int32s, used only by the tandem fallback; nil allocates there.
// The packed path's staging buffer (at most stageCap uint64s) is allocated
// per call; SortTuplesIntoColumnsLeased leases both from a memory lease
// instead, and SortTuplesIntoColumnsWith takes them from any Scratch.
func SortTuplesIntoColumns(src []relation.Tuple, dstKeys, dstPays []uint64, perm []int32) {
	SortTuplesIntoColumnsWith(src, dstKeys, dstPays, permScratch(perm))
}

// Scratch supplies the optional buffers of SortTuplesIntoColumnsWith on
// demand, so a caller leasing from a pool pays only for what the input
// needs. One sort asks for at most one buffer:
//
//   - Perm(n) must return at least n = len(src) int32s. Only the tandem
//     fallback, for keys too wide to pack, asks for it, at every size.
//   - Stage(m) must return at least m uint64s, m <= stageCap. Only the
//     packed path asks for it, on inputs of at least localMinTuples, sized
//     to its largest bucket-local bucket.
type Scratch interface {
	Perm(n int) []int32
	Stage(m int) []uint64
}

// permScratch is the Scratch of SortTuplesIntoColumns: a caller-provided
// permutation buffer (nil allocates one) and a freshly allocated stage.
type permScratch []int32

func (s permScratch) Perm(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	return s
}

func (permScratch) Stage(m int) []uint64 { return make([]uint64, m) }

// SortTuplesIntoColumnsWith is SortTuplesIntoColumns with its scratch
// supplied on demand by scratch (see Scratch).
func SortTuplesIntoColumnsWith(src []relation.Tuple, dstKeys, dstPays []uint64, scratch Scratch) {
	sortColumns(src, dstKeys, dstPays, scratch, localMinTuples)
}

// SortTuplesIntoColumnsLeased is SortTuplesIntoColumnsWith with its scratch
// leased from lease only when the sort asks for it — the packed path's
// staging buffer (chunks of 2^20 tuples and more; at most 1 MiB, sized to
// the largest bucket-local bucket) or the tandem fallback's permutation for
// keys too wide to pack — and handed straight back, so the next sort drawing
// on the same lease reuses it. A nil lease allocates.
func SortTuplesIntoColumnsLeased(src []relation.Tuple, dstKeys, dstPays []uint64, lease *memory.Lease) {
	sc := leaseScratch{lease: lease}
	SortTuplesIntoColumnsWith(src, dstKeys, dstPays, &sc)
	lease.PutInt32s(sc.perm)
	lease.PutUint64s(sc.stage)
}

// leaseScratch serves a sort's scratch from a lease and remembers it for the
// hand-back.
type leaseScratch struct {
	lease *memory.Lease
	perm  []int32
	stage []uint64
}

func (s *leaseScratch) Perm(n int) []int32 {
	s.perm = s.lease.Int32s(n)
	return s.perm
}

func (s *leaseScratch) Stage(m int) []uint64 {
	s.stage = s.lease.Uint64s(m)
	return s.stage
}

// sortColumns is SortTuplesIntoColumnsWith with the packed path's
// bucket-local threshold as a parameter (see sortTuplesPacked).
func sortColumns(src []relation.Tuple, dstKeys, dstPays []uint64, scratch Scratch, localMin int) {
	n := len(src)
	dstKeys = dstKeys[:n]
	dstPays = dstPays[:n]

	maxKey := maxKeyOf(src)
	if idxBits, ok := packedIndexBits(n, maxKey); ok {
		sortTuplesPacked(src, dstKeys, dstPays, maxKey, idxBits, scratch, localMin)
		return
	}

	perm := scratch.Perm(n)[:n]

	if n <= minRadixSize {
		for i, t := range src {
			dstKeys[i] = t.Key
			perm[i] = int32(i)
		}
		leafSortCols(dstKeys, perm)
		for i, p := range perm {
			dstPays[i] = src[p].Payload
		}
		return
	}

	shift := topShift(maxKey)

	var histogram [radixBuckets]int
	for _, t := range src {
		histogram[int(t.Key>>shift)&radixMask]++
	}
	var cursors [radixBuckets]int
	sum := 0
	for b := 0; b < radixBuckets; b++ {
		cursors[b] = sum
		sum += histogram[b]
	}
	bounds := cursors
	for i, t := range src {
		b := int(t.Key>>shift) & radixMask
		dstKeys[cursors[b]] = t.Key
		perm[cursors[b]] = int32(i)
		cursors[b]++
	}
	sortBucketsCols(dstKeys, perm, bounds[:], cursors[:], shift)
	for i, p := range perm {
		dstPays[i] = src[p].Payload
	}
}

// msdRadixSortCols is msdRadixSort on a key column with a permutation column
// carried through every swap.
func msdRadixSortCols(keys []uint64, perm []int32, shift int) {
	var histogram [radixBuckets]int
	for _, k := range keys {
		histogram[int(k>>shift)&radixMask]++
	}

	var bounds, next [radixBuckets]int
	sum := 0
	for b := 0; b < radixBuckets; b++ {
		bounds[b] = sum
		next[b] = sum
		sum += histogram[b]
	}

	for b := 0; b < radixBuckets; b++ {
		end := bounds[b] + histogram[b]
		for i := next[b]; i < end; {
			dst := int(keys[i]>>shift) & radixMask
			if dst == b {
				i++
				next[b] = i
				continue
			}
			j := next[dst]
			keys[i], keys[j] = keys[j], keys[i]
			perm[i], perm[j] = perm[j], perm[i]
			next[dst]++
		}
	}

	ends := next
	sortBucketsCols(keys, perm, bounds[:], ends[:], shift)
}

// sortBucketsCols is sortBuckets for the columnar representation.
func sortBucketsCols(keys []uint64, perm []int32, bounds, ends []int, shift int) {
	for b := 0; b < radixBuckets; b++ {
		pk := keys[bounds[b]:ends[b]]
		pp := perm[bounds[b]:ends[b]]
		if len(pk) < 2 {
			continue
		}
		if len(pk) > cacheLeafTuples && shift >= radixBits {
			msdRadixSortCols(pk, pp, shift-radixBits)
			continue
		}
		if shift == 0 && len(pk) > cacheLeafTuples {
			// All digits consumed: every key in the bucket is equal.
			continue
		}
		leafSortCols(pk, pp)
	}
}

// leafSortCols is leafSort for one sub-cache key/perm partition.
func leafSortCols(keys []uint64, perm []int32) {
	if len(keys) > insertionCutoff {
		introSortLoopCols(keys, perm, 2*log2ceil(len(keys)))
	}
	insertionSortCols(keys, perm)
}

// introSortLoopCols is introSortLoop over key/perm columns.
func introSortLoopCols(keys []uint64, perm []int32, depthLimit int) {
	for len(keys) > insertionCutoff {
		if depthLimit == 0 {
			heapSortCols(keys, perm)
			return
		}
		depthLimit--
		p := partitionHoareCols(keys, perm)
		if p < len(keys)-p {
			introSortLoopCols(keys[:p], perm[:p], depthLimit)
			keys, perm = keys[p:], perm[p:]
		} else {
			introSortLoopCols(keys[p:], perm[p:], depthLimit)
			keys, perm = keys[:p], perm[:p]
		}
	}
}

// partitionHoareCols is partitionHoare over key/perm columns.
func partitionHoareCols(keys []uint64, perm []int32) int {
	pivot := medianOfThreeKeys(keys)
	i, j := -1, len(keys)
	for {
		for {
			i++
			if keys[i] >= pivot {
				break
			}
		}
		for {
			j--
			if keys[j] <= pivot {
				break
			}
		}
		if i >= j {
			if j+1 <= 0 || j+1 >= len(keys) {
				return len(keys) / 2
			}
			return j + 1
		}
		keys[i], keys[j] = keys[j], keys[i]
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// medianOfThreeKeys returns the median of the first, middle and last keys.
func medianOfThreeKeys(keys []uint64) uint64 {
	a := keys[0]
	b := keys[len(keys)/2]
	c := keys[len(keys)-1]
	switch {
	case (a <= b) == (b <= c):
		return b
	case (b <= a) == (a <= c):
		return a
	default:
		return c
	}
}

// heapSortCols is heapSort over key/perm columns.
func heapSortCols(keys []uint64, perm []int32) {
	n := len(keys)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownCols(keys, perm, i, n)
	}
	for end := n - 1; end > 0; end-- {
		keys[0], keys[end] = keys[end], keys[0]
		perm[0], perm[end] = perm[end], perm[0]
		siftDownCols(keys, perm, 0, end)
	}
}

// siftDownCols restores the max-heap property within keys[:n].
func siftDownCols(keys []uint64, perm []int32, i, n int) {
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if child+1 < n && keys[child+1] > keys[child] {
			child++
		}
		if keys[i] >= keys[child] {
			return
		}
		keys[i], keys[child] = keys[child], keys[i]
		perm[i], perm[child] = perm[child], perm[i]
		i = child
	}
}

// insertionSortCols sorts key/perm columns in place for short partitions.
func insertionSortCols(keys []uint64, perm []int32) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		p := perm[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			perm[j+1] = perm[j]
			j--
		}
		keys[j+1] = k
		perm[j+1] = p
	}
}

// IsSortedKeys reports whether a key column is in non-decreasing order.
func IsSortedKeys(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}
