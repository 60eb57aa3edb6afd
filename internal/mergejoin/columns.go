package mergejoin

import (
	"repro/internal/batch"
	"repro/internal/relation"
	"repro/internal/search"
)

// Columnar merge-join kernels: the structure-of-arrays merge joins every
// MPSM match phase runs on. Two hot-loop properties set them apart from a
// row-at-a-time merge:
//
//   - the cursors scan contiguous uint64 key columns, so every cache line
//     fetched carries 8 candidate keys instead of 4 interleaved key/payload
//     pairs;
//   - equi-join matches are emitted as (private, public) index pairs into a
//     fixed-size batch; payloads are only touched by the gather pass that
//     flushes a full batch to the consumer, so the match loop itself stays
//     in the key columns.
//
// Both sides may contain duplicate keys; like Join, the kernels emit the full
// cross product of every match group, in the same order.

// BatchConsumer is the batch fast path of a Consumer: sinks that implement it
// receive whole match batches as columns — the join key and both payload
// columns, equal length — instead of one Consume call per pair. EmitColumns
// falls back to per-pair delivery for consumers that do not implement it.
type BatchConsumer interface {
	ConsumeColumns(keys, rPayloads, sPayloads []uint64)
}

// ConsumeColumns implements BatchConsumer with a branch-free reduction: the
// running maximum folds through the max builtin (a conditional move, not a
// branch), and the pair count advances once per batch.
func (m *MaxAggregate) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	if len(keys) == 0 {
		return
	}
	best := rPayloads[0] + sPayloads[0]
	if m.Count > 0 {
		best = max(best, m.Max)
	}
	for i := 1; i < len(rPayloads); i++ {
		best = max(best, rPayloads[i]+sPayloads[i])
	}
	m.Max = best
	m.Count += uint64(len(keys))
}

// ConsumeColumns implements BatchConsumer: one counter update per batch.
func (c *Counter) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	c.Count += uint64(len(keys))
}

// ConsumeColumns implements BatchConsumer.
func (m *Materializer) ConsumeColumns(keys, rPayloads, sPayloads []uint64) {
	for i := range keys {
		m.Out = append(m.Out, JoinedTuple{Key: keys[i], RPayload: rPayloads[i], SPayload: sPayloads[i]})
	}
}

// EmitColumns delivers one match batch to a consumer: directly when the
// consumer implements BatchConsumer, tuple by tuple otherwise. The
// reconstruction uses the shared join key for both sides, so it serves
// equi-join matches only: band pairs and the zero public tuples of the
// non-inner kinds go out through Consume.
func EmitColumns(out Consumer, keys, rPayloads, sPayloads []uint64) {
	if bc, ok := out.(BatchConsumer); ok {
		bc.ConsumeColumns(keys, rPayloads, sPayloads)
		return
	}
	for i := range keys {
		out.Consume(
			relation.Tuple{Key: keys[i], Payload: rPayloads[i]},
			relation.Tuple{Key: keys[i], Payload: sPayloads[i]},
		)
	}
}

// JoinColumns merge joins two key-sorted column pairs and feeds every
// matching pair to the consumer, batched through sc (nil sc allocates a
// throwaway scratch). Columns must be shorter than 2^31 elements — indices
// batch as int32, and runs are per-worker chunks well below that.
func JoinColumns(rKeys, rPays, sKeys, sPays []uint64, out Consumer, sc *batch.Scratch) {
	nR, nS := len(rKeys), len(sKeys)
	if nR == 0 || nS == 0 {
		return
	}
	if sc == nil {
		sc = batch.NewScratch(0, nil)
	}
	pr, ps := sc.Pairs.R, sc.Pairs.S
	capN := len(pr)
	n := 0

	i, j := 0, 0
	for i < nR && j < nS {
		rk := rKeys[i]
		for j < nS && sKeys[j] < rk {
			j++
		}
		if j >= nS {
			break
		}
		sk := sKeys[j]
		if rk < sk {
			for i < nR && rKeys[i] < sk {
				i++
			}
			continue
		}
		// rk == sk: emit the cross product of the two equal-key groups as
		// index pairs; payloads wait for the batch flush.
		iEnd := i + 1
		for iEnd < nR && rKeys[iEnd] == rk {
			iEnd++
		}
		jEnd := j + 1
		for jEnd < nS && sKeys[jEnd] == rk {
			jEnd++
		}
		for a := i; a < iEnd; a++ {
			for b := j; b < jEnd; b++ {
				pr[n] = int32(a)
				ps[n] = int32(b)
				n++
				if n == capN {
					flushPairs(out, rKeys, rPays, sPays, pr, ps, n, sc)
					n = 0
				}
			}
		}
		i, j = iEnd, jEnd
	}
	if n > 0 {
		flushPairs(out, rKeys, rPays, sPays, pr, ps, n, sc)
	}
}

// flushPairs gathers the batched index pairs into the scratch's output
// columns — the single pass that touches payload memory — and hands the batch
// to the consumer.
func flushPairs(out Consumer, rKeys, rPays, sPays []uint64, pr, ps []int32, n int, sc *batch.Scratch) {
	keys := sc.Out.Keys[:n]
	rp := sc.Out.RPayloads[:n]
	sp := sc.Out.SPayloads[:n]
	for x := 0; x < n; x++ {
		a, b := pr[x], ps[x]
		keys[x] = rKeys[a]
		rp[x] = rPays[a]
		sp[x] = sPays[b]
	}
	EmitColumns(out, keys, rp, sp)
}

// JoinColumnsWithSkip is JoinColumns preceded by interpolation searches that
// narrow the public key column to the key range the private columns cover.
// This is the paper's phase-4 optimization: after range partitioning, a
// private run covers only a fraction of the key domain, so most of every
// public run is skipped without comparisons. It returns the number of public
// tuples actually scanned, which demonstrates the |S|/T vs |S| complexity
// difference between P-MPSM and B-MPSM.
func JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays []uint64, out Consumer, sc *batch.Scratch) (publicScanned int) {
	if len(rKeys) == 0 || len(sKeys) == 0 {
		return 0
	}
	start := search.LowerBoundKeys(sKeys, rKeys[0])
	end := search.UpperBoundKeys(sKeys, rKeys[len(rKeys)-1])
	if start >= end {
		return 0
	}
	JoinColumns(rKeys, rPays, sKeys[start:end], sPays[start:end], out, sc)
	return end - start
}
