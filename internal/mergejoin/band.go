package mergejoin

import (
	"math"

	"repro/internal/relation"
	"repro/internal/search"
)

// bandRange returns the key range [low, high] that matches key k within
// band, saturating at 0 and MaxUint64.
func bandRange(k, band uint64) (low, high uint64) {
	if k > band {
		low = k - band
	}
	high = k + band
	if high < k {
		high = math.MaxUint64
	}
	return low, high
}

// JoinBand performs a non-equi band join between two key-sorted inputs: it
// emits every pair (r, s) with |r.Key − s.Key| <= band. With band = 0 it
// degenerates to the equi-join.
//
// The paper lists non-equi joins among the future join variants of MPSM; a
// band join is the non-equi variant that benefits most directly from MPSM's
// sorted runs, because each private tuple's match partners form a contiguous
// window of the public run. The kernel keeps a sliding window over the public
// input and therefore runs in O(|private| + |public| + |output|).
//
// Both inputs must be sorted by ascending key.
func JoinBand(private, public []relation.Tuple, band uint64, out Consumer) {
	if len(private) == 0 || len(public) == 0 {
		return
	}
	start := 0
	for _, r := range private {
		low, high := bandRange(r.Key, band)
		// Advance the window start: keys below low can never match this or
		// any later private tuple (keys are non-decreasing).
		for start < len(public) && public[start].Key < low {
			start++
		}
		for j := start; j < len(public) && public[j].Key <= high; j++ {
			out.Consume(r, public[j])
		}
	}
}

// JoinBandAgainstRuns band joins one sorted private run against every sorted
// public run in turn: interpolation searches narrow each run to the window
// [min−band, max+band] of the private run's keys, and JoinBand joins the
// window. It returns the number of public tuples in the windows.
func JoinBandAgainstRuns(private []relation.Tuple, publicRuns []*relation.Run, band uint64, out Consumer) (publicScanned int) {
	if len(private) == 0 {
		return 0
	}
	low, _ := bandRange(private[0].Key, band)
	_, high := bandRange(private[len(private)-1].Key, band)
	for _, pub := range publicRuns {
		start := search.LowerBound(pub.Tuples, low)
		end := search.UpperBound(pub.Tuples, high)
		if start >= end {
			continue
		}
		JoinBand(private, pub.Tuples[start:end], band, out)
		publicScanned += end - start
	}
	return publicScanned
}

// JoinBandColumns is the columnar band join of one key-sorted private column
// segment with one key-sorted public column run: it emits every pair with
// |r − s| <= band. Interpolation searches locate the public window
// [min−band, max+band] of the segment's keys (saturating at 0 and MaxUint64)
// — the band counterpart of JoinColumnsWithSkip — so a segment never scans
// the run outside its reach; inside the window a sliding start advances with
// the private keys, giving O(|segment| + |window| + |output|). A band pair's
// two keys differ, so pairs go out through Consume, each side with its own
// key. It returns the number of public tuples in the window.
func JoinBandColumns(rKeys, rPays, sKeys, sPays []uint64, band uint64, out Consumer) (publicScanned int) {
	if len(rKeys) == 0 || len(sKeys) == 0 {
		return 0
	}
	low, _ := bandRange(rKeys[0], band)
	_, high := bandRange(rKeys[len(rKeys)-1], band)
	start := search.LowerBoundKeys(sKeys, low)
	end := search.UpperBoundKeys(sKeys, high)
	if start >= end {
		return 0
	}
	ws := start
	for i, rk := range rKeys {
		lo, hi := bandRange(rk, band)
		for ws < end && sKeys[ws] < lo {
			ws++
		}
		r := relation.Tuple{Key: rk, Payload: rPays[i]}
		for j := ws; j < end && sKeys[j] <= hi; j++ {
			out.Consume(r, relation.Tuple{Key: sKeys[j], Payload: sPays[j]})
		}
	}
	return end - start
}

// ReferenceJoinBand is the quadratic oracle for band-join tests.
func ReferenceJoinBand(r, s []relation.Tuple, band uint64, out Consumer) {
	for _, rt := range r {
		for _, st := range s {
			var diff uint64
			if rt.Key > st.Key {
				diff = rt.Key - st.Key
			} else {
				diff = st.Key - rt.Key
			}
			if diff <= band {
				out.Consume(rt, st)
			}
		}
	}
}
