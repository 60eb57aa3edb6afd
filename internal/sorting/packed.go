package sorting

import (
	"math/bits"
	"slices"

	"repro/internal/relation"
)

// Packed fast path of SortTuplesIntoColumns. The tandem key/perm sort pays for
// its narrow elements with a second array in every swap cycle and insertion
// shift — two cache lines touched and two bounds checks where the AoS sort
// touches one. When the key domain leaves enough low bits free (the paper's
// datasets use 32-bit keys in 64-bit slots), a row locator can be packed into
// those bits instead:
//
//	packed = key << idxBits | locator
//
// and the sort runs over ONE uint64 array — 8 bytes moved per element
// against the AoS sort's 16 and the tandem path's 12-in-two-arrays. The
// locator is where the first scatter put the tuple's payload — inside the
// tuple's own first-level bucket — or, in chunks small enough for the source
// to stay cache-resident and in buckets too large to, its source index; each
// payload is recovered by a mask as its bucket finishes (see
// sortTuplesPacked). Locators rise with the source
// index among equal keys, which makes this path stable as a side effect (the
// contract stays "not stable"; the tandem fallback is not).
//
// The fallback condition is exact: packing applies iff the maximum key and
// the index width together fit in 64 bits, so full-width keys silently take
// the tandem path and nothing is lost.

// packedIndexBits returns the low-bit width needed to address n source
// indices and whether key<<idxBits|index packing fits in 64 bits for maxKey.
func packedIndexBits(n int, maxKey uint64) (idxBits int, ok bool) {
	if n > 1 {
		idxBits = bits.Len(uint(n - 1))
	}
	return idxBits, idxBits == 0 || maxKey>>(64-idxBits) == 0
}

// packedLeafCutoff is the bucket size up to which the packed radix recursion
// always finishes in place (scatter plus insertion sort, see sortWideU64), and
// the most values one scatter digit may hold before the scatter refuses.
// Packed values are single uint64s, so the sweet spot sits far below
// cacheLeafTuples: measured on 2^20 uniform keys, 64 beats both pdqsort leaves
// at 2048 (1.7x slower) and deeper recursion.
const packedLeafCutoff = 64

// packedTopShift picks the first radix digit for packed values. Unlike the
// byte-aligned topShift, it aligns the digit to the TOP of the value: packing
// shifts the key up by idxBits, so a byte-aligned digit would often catch only
// a few significant key bits (a 2^52 bound byte-aligns to shift 48, leaving a
// 16-way first pass) and waste the widest, most cache-hostile level. Aligning
// to bits.Len puts a full 256-way fanout on the first pass; recursion below
// steps by whole digits, which needs no alignment.
func packedTopShift(maxPacked uint64) int {
	s := bits.Len64(maxPacked) - radixBits
	if s < 0 {
		s = 0
	}
	return s
}

// msdRadixSortU64 is msdRadixSortCols for a single packed column: one
// histogram, prefix-sum bounds and an American-flag swap cycle per level.
func msdRadixSortU64(packed []uint64, shift int, sc *wideScratch) {
	var histogram [radixBuckets]int
	for _, p := range packed {
		histogram[int(p>>shift)&radixMask]++
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
			dst := int(packed[i]>>shift) & radixMask
			if dst == b {
				i++
				next[b] = i
				continue
			}
			j := next[dst]
			packed[i], packed[j] = packed[j], packed[i]
			next[dst]++
		}
	}

	sortBucketsU64(packed, bounds[:], next[:], shift, sc)
}

// sortBucketsU64 finishes the buckets of one radix level with
// sortPackedBucket.
func sortBucketsU64(packed []uint64, bounds, ends []int, shift int, sc *wideScratch) {
	for b := 0; b < radixBuckets; b++ {
		sortPackedBucket(packed[bounds[b]:ends[b]], shift, sc)
	}
}

// insertionSortU64 sorts a short packed leaf in place.
func insertionSortU64(packed []uint64) {
	for i := 1; i < len(packed); i++ {
		p := packed[i]
		j := i - 1
		for j >= 0 && packed[j] > p {
			packed[j+1] = packed[j]
			j--
		}
		packed[j+1] = p
	}
}

// stageCap is the most values a bucket-local bucket may hold, and so the
// largest staging buffer one packed sort asks for: 1<<17 uint64s, 1 MiB. It
// keeps uniform 32-bit keys bucket-local up to 2^24-tuple chunks, whose
// first-level buckets hold ~65K values (1<<16 sent about half of them back to
// the source gather); such a bucket's packed values, payloads and staging
// copy (1.5 MiB together) stay resident in a 2 MiB L2 while it is finished.
const stageCap = 1 << 17

// localMinTuples is the smallest chunk the packed sort finishes bucket-local.
// The bucket-local scatter writes each payload as a second stream beside its
// packed key. While the source chunk (16 bytes a tuple) is largely
// cache-resident, that stream costs more than the random gather from the
// source it replaces. Measured on a 2-core Xeon VM with 2 MiB of L2 per core,
// bucket-local finishing took +7% ns/tuple at 2^18 tuples and +20% at 2^19,
// but -7% at 2^20 and about -20% from 2^21 up.
const localMinTuples = 1 << 20

// sortTuplesPacked is the packed path of SortTuplesIntoColumns. The AoS→SoA
// deinterleave, the first radix digit and the index packing fuse into one
// scatter pass that writes each packed key into dstPays (the packed scratch
// until the end) and each payload into dstKeys at the same position. The
// sort then finishes one first-level bucket at a time and writes that
// bucket's slice of both output columns right away, so no later pass leaves
// the bucket.
//
// From localMin tuples up most buckets are bucket-local: when the first digit
// holds key bits only (shift >= idxBits) and the bucket holds at most
// stageCap values, the packed low bits carry the scatter position instead of
// the source index. Positions rise with the source index inside a bucket, so
// equal keys still tie-break in source order, and the payload of each sorted
// value is read from the bucket's own slice of dstKeys rather than from src —
// a gather confined to a cache-resident range instead of a random read over
// the whole chunk. The remaining buckets (narrow key domains, whose first digit includes index
// bits, and skewed buckets above stageCap) keep the source index and gather
// from src, as do all buckets of a smaller chunk. SortTuplesIntoColumnsWith
// passes localMin = localMinTuples; tests lower it.
func sortTuplesPacked(src []relation.Tuple, dstKeys, dstPays []uint64, maxKey uint64, idxBits int, scratch Scratch, localMin int) {
	n := len(src)
	packed := dstPays
	maxPacked := maxKey<<idxBits | uint64(n-1)
	var mask uint64
	if idxBits > 0 {
		mask = uint64(1)<<idxBits - 1
	}

	if n <= minRadixSize {
		for i, t := range src {
			packed[i] = t.Key<<idxBits | uint64(i)
		}
		slices.Sort(packed)
		for i, p := range packed {
			dstKeys[i] = p >> idxBits
			dstPays[i] = src[p&mask].Payload
		}
		return
	}

	shift := packedTopShift(maxPacked)
	var histogram [radixBuckets]int
	for i, t := range src {
		histogram[int((t.Key<<idxBits|uint64(i))>>shift)&radixMask]++
	}
	// local[b] is all ones for a bucket-local bucket: the scatter then swaps
	// the source index in the packed low bits for the scatter position.
	var local [radixBuckets]uint64
	stageLen := 0
	if shift >= idxBits && n >= localMin {
		for b, c := range histogram {
			if c <= stageCap {
				local[b] = ^uint64(0)
				stageLen = max(stageLen, c)
			}
		}
	}
	var cursors [radixBuckets]int
	sum := 0
	for b := 0; b < radixBuckets; b++ {
		cursors[b] = sum
		sum += histogram[b]
	}
	bounds := cursors
	if stageLen == 0 {
		// No bucket-local bucket: every payload is gathered from src.
		for i, t := range src {
			p := t.Key<<idxBits | uint64(i)
			b := int(p>>shift) & radixMask
			packed[cursors[b]] = p
			cursors[b]++
		}
	} else {
		for i, t := range src {
			p := t.Key<<idxBits | uint64(i)
			b := int(p>>shift) & radixMask
			c := cursors[b]
			packed[c] = p ^ (uint64(i^c) & local[b])
			dstKeys[c] = t.Payload
			cursors[b]++
		}
	}

	var stage []uint64
	if stageLen > 0 {
		stage = scratch.Stage(stageLen)
	}
	var sc wideScratch
	for b := 0; b < radixBuckets; b++ {
		// Per-bucket slices, not dst[lo+j]: the gather loops are bound by
		// their loads, and the extra index arithmetic measured ~10% slower.
		keys, part := dstKeys[bounds[b]:cursors[b]], packed[bounds[b]:cursors[b]]
		if local[b] == 0 {
			sortPackedBucket(part, shift, &sc)
			for j, p := range part {
				keys[j] = p >> idxBits
				part[j] = src[p&mask].Payload
			}
			continue
		}
		sorted := stage[:len(part)]
		if len(part) > wideBuckets {
			scatterPackedBucket(part, sorted, shift-radixBits, &sc)
		} else {
			sortPackedBucket(part, shift, &sc)
			copy(sorted, part)
		}
		// Both passes stay inside the bucket: the payloads are read from
		// their scatter positions before the keys overwrite them.
		for j, p := range sorted {
			part[j] = dstKeys[p&mask]
		}
		for j, p := range sorted {
			keys[j] = p >> idxBits
		}
	}
}

// scatterPackedBucket sorts part into dst (of equal length) with one
// out-of-place counting scatter on the digit at shift, then finishes the
// sub-buckets in dst with sortPackedBucket. It replaces the in-place
// American-flag level for bucket-local buckets, whose staging buffer is
// there anyway: sequential reads and cache-resident random writes instead of
// dependent swap chains.
func scatterPackedBucket(part, dst []uint64, shift int, sc *wideScratch) {
	var histogram [radixBuckets]int
	for _, p := range part {
		histogram[int(p>>shift)&radixMask]++
	}
	var next [radixBuckets]int
	sum := 0
	for b := 0; b < radixBuckets; b++ {
		next[b] = sum
		sum += histogram[b]
	}
	bounds := next
	for _, p := range part {
		b := int(p>>shift) & radixMask
		dst[next[b]] = p
		next[b]++
	}
	sortBucketsU64(dst, bounds[:], next[:], shift, sc)
}

// sortPackedBucket finishes one bucket left over from a radix level at shift.
// A bucket of 9..4096 values takes the counting scatter when its digit fits
// below shift; otherwise leaves are insertion-sorted, larger buckets recurse
// while digits remain, and the rare large bucket whose digits ran out (more
// than packedLeafCutoff values agreeing on every bit from shift up — the
// distinct index bits keep such buckets small) falls back to the standard
// library.
func sortPackedBucket(part []uint64, shift int, sc *wideScratch) {
	if len(part) < 2 {
		return
	}
	wb := min(wideBits, bits.Len(uint(len(part))))
	if len(part) > 8 && len(part) <= wideBuckets && shift >= wb && sortWideU64(part, shift, wb, sc) {
		return
	}
	switch {
	case len(part) <= packedLeafCutoff:
		insertionSortU64(part)
	case shift >= radixBits:
		msdRadixSortU64(part, shift-radixBits, sc)
	default:
		slices.Sort(part)
	}
}

// wideBits caps the digit width of the one-shot counting scatter that
// finishes buckets of up to 4096 values: a single out-of-place scatter on the
// next wb = min(wideBits, bits.Len(len)) bits — one to two counters per
// value, counters and staging both cache-resident — instead of another
// American-flag level plus per-leaf sorting: three sequential passes with
// L1-local random writes in place of the flag's dependent swap chains.
// Sizing the digit to the bucket matters because most buckets are small: at
// 2^22 uniform keys the second radix level leaves buckets of ~64 values, on
// which a 4096-way digit would cost ~32 counter clears and prefix-sum steps
// per value.
const (
	wideBits    = 12
	wideBuckets = 1 << wideBits
)

// wideScratch holds the counters and staging of the finishing scatter. One
// lives in the frame of each top-level sort and is threaded through the
// recursion, so no bucket pays for zeroing its own arrays; each scatter
// clears only the 1<<wb counters it uses.
type wideScratch struct {
	cnt [wideBuckets]int32
	tmp [wideBuckets]uint64
}

// sortWideU64 finishes one bucket with a wb-bit counting scatter on the bits
// just below shift (shift >= wb) and a near-linear insertion fix-up. It
// refuses (returns false, having done nothing) when the digit is too skewed
// for the fix-up to stay near-linear — more than packedLeafCutoff values
// sharing one digit — which sends the caller down the recursive path instead;
// a leaf of at most packedLeafCutoff values is therefore never refused.
func sortWideU64(part []uint64, shift, wb int, sc *wideScratch) bool {
	ws := shift - wb
	mask := 1<<wb - 1
	cnt := sc.cnt[:1<<wb]
	clear(cnt)
	for _, p := range part {
		cnt[int(p>>ws)&mask]++
	}
	var sum, maxCnt int32
	for b := range cnt {
		c := cnt[b]
		if c > maxCnt {
			maxCnt = c
		}
		cnt[b] = sum
		sum += c
	}
	if maxCnt > packedLeafCutoff {
		return false
	}
	tmp := sc.tmp[:len(part)]
	for _, p := range part {
		b := int(p>>ws) & mask
		tmp[cnt[b]] = p
		cnt[b]++
	}
	copy(part, tmp)
	insertionSortU64(part)
	return true
}
