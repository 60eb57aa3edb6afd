package mergejoin

import (
	"context"
	"fmt"

	"repro/internal/batch"
	"repro/internal/relation"
	"repro/internal/search"
)

// Kind selects the join semantics of the MPSM variants. The paper's future
// work section names outer, semi and anti joins as the natural extensions of
// the algorithm; they all fit the MPSM structure because every private tuple
// is owned by exactly one worker, which sees all of that tuple's potential
// match partners across the public runs.
type Kind int

const (
	// Inner emits one result per matching (r, s) pair.
	Inner Kind = iota
	// LeftOuter emits every matching pair plus, for every private tuple
	// without a match, one result with the zero public tuple (the NULL
	// convention of this library).
	LeftOuter
	// Semi emits every private tuple that has at least one match, exactly
	// once, paired with the zero public tuple.
	Semi
	// Anti emits every private tuple that has no match, paired with the
	// zero public tuple.
	Anti
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Inner:
		return "inner"
	case LeftOuter:
		return "left-outer"
	case Semi:
		return "semi"
	case Anti:
		return "anti"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is a known join kind.
func (k Kind) Valid() bool { return k >= Inner && k <= Anti }

// JoinRunsKind merge joins one key-sorted private column segment against
// every key-sorted public column run with the requested join semantics and
// returns the number of public tuples scanned.
//
// For Inner it joins the segment with each run in turn through
// JoinColumnsWithSkip. For the other kinds it keeps a matched bitmap over the
// segment, leased from sc (nil sc allocates a throwaway scratch): each public
// run is narrowed to the segment's key range by interpolation search and
// merged once, marking every private tuple that found a partner and, for
// LeftOuter, emitting the matching pairs right away. The unmatched
// (LeftOuter, Anti) or matched (Semi) private tuples follow after the last
// run, so a tuple matching only in the final run is classified correctly.
// Non-inner results carry the zero relation.Tuple on the public side, which
// is why these kinds deliver through Consume rather than EmitColumns.
//
// Cancellation is checked between public runs. On cancellation the kernel
// returns early with a partial scan count and emits nothing further (the
// match state would be incomplete); the caller discards the partial result.
func JoinRunsKind(ctx context.Context, kind Kind, rKeys, rPays []uint64, publicRuns []*batch.Run, out Consumer, sc *batch.Scratch) (publicScanned int) {
	switch kind {
	case Inner:
		for _, pub := range publicRuns {
			if Canceled(ctx) {
				return publicScanned
			}
			publicScanned += JoinColumnsWithSkip(rKeys, rPays, pub.Keys, pub.Payloads, out, sc)
		}
		return publicScanned
	case LeftOuter, Semi, Anti:
		// Handled below.
	default:
		panic(fmt.Sprintf("mergejoin: unknown join kind %d", int(kind)))
	}
	if len(rKeys) == 0 {
		return 0
	}
	if sc == nil {
		sc = batch.NewScratch(0, nil)
	}
	matched := sc.Bits(len(rKeys))
	lo, hi := rKeys[0], rKeys[len(rKeys)-1]
	for _, pub := range publicRuns {
		if Canceled(ctx) {
			return publicScanned
		}
		start := search.LowerBoundKeys(pub.Keys, lo)
		end := search.UpperBoundKeys(pub.Keys, hi)
		if start >= end {
			continue
		}
		markColumns(kind == LeftOuter, rKeys, rPays, pub.Keys[start:end], pub.Payloads[start:end], matched, out)
		publicScanned += end - start
	}
	if Canceled(ctx) {
		return publicScanned
	}
	emitMatched := kind == Semi
	for i, k := range rKeys {
		if (matched[i>>6]>>(i&63)&1 == 1) == emitMatched {
			out.Consume(relation.Tuple{Key: k, Payload: rPays[i]}, relation.Tuple{})
		}
	}
	return publicScanned
}

// markColumns performs one merge pass of the private columns against one
// public window: it sets the matched bit of every private tuple that has a
// partner and, if emit is set (LeftOuter), emits the matching pairs.
func markColumns(emit bool, rKeys, rPays, sKeys, sPays, matched []uint64, out Consumer) {
	i, j := 0, 0
	for i < len(rKeys) && j < len(sKeys) {
		rk, sk := rKeys[i], sKeys[j]
		switch {
		case rk < sk:
			i++
		case rk > sk:
			j++
		default:
			iEnd := i + 1
			for iEnd < len(rKeys) && rKeys[iEnd] == rk {
				iEnd++
			}
			jEnd := j + 1
			for jEnd < len(sKeys) && sKeys[jEnd] == rk {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				matched[a>>6] |= 1 << (a & 63)
				if emit {
					r := relation.Tuple{Key: rk, Payload: rPays[a]}
					for b := j; b < jEnd; b++ {
						out.Consume(r, relation.Tuple{Key: rk, Payload: sPays[b]})
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
}

// ReferenceJoinKind is the oracle counterpart of JoinRunsKind used by tests:
// a straightforward hash-based implementation of every join kind.
func ReferenceJoinKind(kind Kind, r, s []relation.Tuple, out Consumer) {
	switch kind {
	case Inner:
		ReferenceJoin(r, s, out)
		return
	}
	sKeys := make(map[uint64][]relation.Tuple, len(s))
	for _, t := range s {
		sKeys[t.Key] = append(sKeys[t.Key], t)
	}
	for _, rt := range r {
		partners := sKeys[rt.Key]
		switch kind {
		case LeftOuter:
			if len(partners) == 0 {
				out.Consume(rt, relation.Tuple{})
				continue
			}
			for _, st := range partners {
				out.Consume(rt, st)
			}
		case Semi:
			if len(partners) > 0 {
				out.Consume(rt, relation.Tuple{})
			}
		case Anti:
			if len(partners) == 0 {
				out.Consume(rt, relation.Tuple{})
			}
		}
	}
}
