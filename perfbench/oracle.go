package main

import (
	"fmt"
	"slices"
	"sort"

	mpsm "repro"
	"repro/internal/mergejoin"
)

// joinSummary is what the paper's evaluation query returns: the join
// cardinality and max(R.payload + S.payload).
type joinSummary struct {
	Matches uint64
	MaxSum  uint64
}

func (j joinSummary) check(what string, got *mpsm.Result) error {
	if got == nil {
		return fmt.Errorf("%s: no result", what)
	}
	have := joinSummary{got.Matches, got.MaxSum}
	if have.Matches == 0 {
		have.MaxSum = 0 // MaxSum is only defined when there are matches
	}
	if have != j {
		return fmt.Errorf("%s: %w: got matches=%d max_sum=%d, want matches=%d max_sum=%d",
			what, errMismatch, have.Matches, have.MaxSum, j.Matches, j.MaxSum)
	}
	return nil
}

// hashOracle computes the equi-join summary of r and s without the engine:
// an open-addressing table over r's keys probed by every s tuple.
func hashOracle(r, s []mpsm.Tuple) joinSummary {
	size := 2
	for size < 2*len(r) {
		size <<= 1
	}
	mask := uint64(size - 1)
	slots := make([]int32, size) // index+1 into r; 0 marks an empty slot
	for i, t := range r {
		h := mixKey(t.Key) & mask
		for slots[h] != 0 {
			h = (h + 1) & mask
		}
		slots[h] = int32(i + 1)
	}
	var out joinSummary
	for _, st := range s {
		for h := mixKey(st.Key) & mask; slots[h] != 0; h = (h + 1) & mask {
			rt := r[slots[h]-1]
			if rt.Key != st.Key {
				continue
			}
			if sum := rt.Payload + st.Payload; out.Matches == 0 || sum > out.MaxSum {
				out.MaxSum = sum
			}
			out.Matches++
		}
	}
	return out
}

func mixKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

// kindOracle is the summary of a non-band join of the given kind, from the
// test oracle mergejoin.ReferenceJoinKind.
func kindOracle(kind mpsm.JoinKind, r, s []mpsm.Tuple) joinSummary {
	var agg mergejoin.MaxAggregate
	mergejoin.ReferenceJoinKind(kind, r, s, &agg)
	return summaryOf(agg)
}

func summaryOf(agg mergejoin.MaxAggregate) joinSummary {
	if agg.Count == 0 {
		return joinSummary{}
	}
	return joinSummary{agg.Count, agg.Max}
}

// bandOracle is the summary of the band join |r.key - s.key| <= band. The
// quadratic mergejoin.ReferenceJoinBand is applied to key blocks of r, each
// against the s tuples within band of the block, so every pair is still
// decided by the reference's own comparison and counted exactly once.
func bandOracle(r, s []mpsm.Tuple, band uint64) joinSummary {
	rs := sortedByKey(r)
	ss := sortedByKey(s)
	const block = 64
	var agg mergejoin.MaxAggregate
	for lo := 0; lo < len(rs); lo += block {
		blk := rs[lo:min(lo+block, len(rs))]
		first, last := blk[0].Key, blk[len(blk)-1].Key
		from := first - min(first, band)
		to := last + band
		if to < last {
			to = ^uint64(0)
		}
		i := sort.Search(len(ss), func(i int) bool { return ss[i].Key >= from })
		j := sort.Search(len(ss), func(j int) bool { return ss[j].Key > to })
		mergejoin.ReferenceJoinBand(blk, ss[i:j], band, &agg)
	}
	return summaryOf(agg)
}

func sortedByKey(ts []mpsm.Tuple) []mpsm.Tuple {
	out := slices.Clone(ts)
	slices.SortFunc(out, func(a, b mpsm.Tuple) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	return out
}

// groupSum is the group-by oracle for the compiled queries
//
//	ans(K, Sum) :- a1(K, _), ..., an(K, V), agg sum(V).
//
// where the first n-1 atoms only multiply: every combination of one tuple
// per atom with key K contributes V, so group K's sum is the product of the
// multiplier atoms' counts of K times the sum of V over the last atom's
// tuples with key K (all in wrapping uint64 arithmetic, as the engine sums).
// keep filters the first atom's tuples (a payload predicate); nil keeps all.
// The result is sorted by key.
func groupSum(keep func(mpsm.Tuple) bool, mult [][]mpsm.Tuple, summed []mpsm.Tuple) []mpsm.Tuple {
	count := make([]map[uint64]uint64, len(mult))
	for i, rel := range mult {
		count[i] = make(map[uint64]uint64)
		for _, t := range rel {
			if i == 0 && keep != nil && !keep(t) {
				continue
			}
			count[i][t.Key]++
		}
	}
	sums := make(map[uint64]uint64)
	for _, t := range summed {
		f := uint64(1)
		for _, c := range count {
			f *= c[t.Key]
		}
		if f != 0 {
			sums[t.Key] += f * t.Payload
		}
	}
	out := make([]mpsm.Tuple, 0, len(sums))
	for k, v := range sums {
		out = append(out, mpsm.Tuple{Key: k, Payload: v})
	}
	return sortedByKey(out)
}

// checkRows compares a grouped query's output with its reference want (one
// tuple per key). rows is the output's row count; got holds either every row
// or, when limit > 0, only the first limit of them, so each returned row must
// be a reference row and appear once.
func checkRows(what string, got []mpsm.Tuple, rows int, want []mpsm.Tuple, limit int) error {
	if rows != len(want) {
		return fmt.Errorf("%s: %w: %d rows, want %d", what, errMismatch, rows, len(want))
	}
	expect := len(want)
	if limit > 0 {
		expect = min(expect, limit)
	}
	if len(got) != expect {
		return fmt.Errorf("%s: %w: %d rows returned, want %d", what, errMismatch, len(got), expect)
	}
	byKey := make(map[uint64]uint64, len(want))
	for _, t := range want {
		byKey[t.Key] = t.Payload
	}
	seen := make(map[uint64]bool, len(got))
	for _, t := range got {
		v, ok := byKey[t.Key]
		if !ok || v != t.Payload || seen[t.Key] {
			return fmt.Errorf("%s: %w: row %v not in the reference (or repeated)", what, errMismatch, t)
		}
		seen[t.Key] = true
	}
	return nil
}
