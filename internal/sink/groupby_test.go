package sink

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/memory"
	"repro/internal/relation"
)

// referenceGroups is the group-by oracle: a map aggregation sorted by key,
// sharing no code with the sort-based and merge-based implementations. It
// returns the groups of every aggregate, indexed by Agg.
func referenceGroups(tuples []relation.Tuple) [][]relation.Tuple {
	type accs struct{ sum, min, max, count uint64 }
	groups := make(map[uint64]accs, len(tuples)/4+1)
	for _, t := range tuples {
		a, ok := groups[t.Key]
		if !ok {
			a = accs{min: t.Payload, max: t.Payload}
		}
		a.sum += t.Payload
		a.min = min(a.min, t.Payload)
		a.max = max(a.max, t.Payload)
		a.count++
		groups[t.Key] = a
	}
	keys := make([]uint64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([][]relation.Tuple, len(allAggs))
	for _, k := range keys {
		a := groups[k]
		out[AggSum] = append(out[AggSum], relation.Tuple{Key: k, Payload: a.sum})
		out[AggMin] = append(out[AggMin], relation.Tuple{Key: k, Payload: a.min})
		out[AggMax] = append(out[AggMax], relation.Tuple{Key: k, Payload: a.max})
		out[AggCount] = append(out[AggCount], relation.Tuple{Key: k, Payload: a.count})
	}
	return out
}

var allAggs = []Agg{AggSum, AggMin, AggMax, AggCount}

// workerStreams cuts tuples into one contiguous block per worker. With
// segments > 0 every block is cut into that many key-sorted segments, the
// shape of an MPSM worker's output (one segment per public run).
func workerStreams(tuples []relation.Tuple, workers, segments int) [][]relation.Tuple {
	streams := make([][]relation.Tuple, workers)
	n := len(tuples)
	for w := range streams {
		block := tuples[w*n/workers : (w+1)*n/workers]
		if segments > 0 {
			block = slices.Clone(block)
			for i := range segments {
				seg := block[i*len(block)/segments : (i+1)*len(block)/segments]
				slices.SortFunc(seg, func(a, b relation.Tuple) int { return cmp.Compare(a.Key, b.Key) })
			}
		}
		streams[w] = block
	}
	return streams
}

// groupSinkResult feeds worker w's stream to the group sink's writer w. Each
// tuple arrives as a pair whose payload sum is the tuple's payload, split at
// a random point so the sink's projection sums (and wraps) it back.
func groupSinkResult(t testing.TB, snk GroupSink, streams [][]relation.Tuple, lease *memory.Lease, rng *rand.Rand) []relation.Tuple {
	t.Helper()
	b := Bind(snk, len(streams), lease)
	for w, stream := range streams {
		wr := b.Writer(w)
		for _, tu := range stream {
			r := rng.Uint64()
			wr.Consume(relation.Tuple{Key: tu.Key, Payload: r}, relation.Tuple{Key: tu.Key, Payload: tu.Payload - r})
		}
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return snk.Groups()
}

// checkGroupBy compares every group-by implementation against the oracle for
// all four aggregates: AggregateTuples with 1, 2 and 3 workers, its chunked
// core forced to 2 and 3 chunks whatever the input size, HashGroups over
// unordered worker streams and MergeGroups over key-sorted segments.
// Aggregates alternate between fresh allocation and a scratch pool.
func checkGroupBy(t testing.TB, name string, tuples []relation.Tuple, sinkWorkers int, seed uint64) {
	t.Helper()
	input := slices.Clone(tuples)
	unordered := workerStreams(tuples, sinkWorkers, 0)
	segmented := workerStreams(tuples, sinkWorkers, 3)
	rng := rand.New(rand.NewPCG(seed, 7))
	pool := memory.NewPool(0)
	oracle := referenceGroups(tuples)
	for i, agg := range allAggs {
		want := oracle[agg]
		check := func(impl string, got []relation.Tuple) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%v/%s: %d groups differ from the oracle's %d (first difference at %d)",
					name, agg, impl, len(got), len(want), firstDifference(got, want))
			}
		}
		var lease *memory.Lease
		if i%2 == 1 {
			lease = pool.Acquire()
		}
		for workers := 1; workers <= 3; workers++ {
			check(fmt.Sprintf("AggregateTuples(workers=%d)", workers), AggregateTuples(tuples, agg, workers, lease))
		}
		for k := 2; k <= 3; k++ {
			check(fmt.Sprintf("aggregateChunks(k=%d)", k), aggregateChunks(tuples, agg, k, lease))
		}
		check("HashGroups", groupSinkResult(t, NewHashGroups(agg, lease), unordered, lease, rng))
		check("MergeGroups", groupSinkResult(t, NewMergeGroups(agg, lease), segmented, lease, rng))
		lease.Release()
	}
	if !slices.Equal(tuples, input) {
		t.Fatalf("%s: AggregateTuples modified its input", name)
	}
	if err := pool.CheckIntegrity(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func firstDifference(a, b []relation.Tuple) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// groupInput draws n tuples over distinct keys (distinct <= 0 means every
// key distinct): each key index is spread by an odd multiplier, which is
// injective, and masked to keyBits. Keys of at most 32 bits take the sort's
// packed path; full-width keys its tandem fallback. Payloads are full-width,
// so sums wrap.
func groupInput(n, distinct, keyBits int, seed uint64) []relation.Tuple {
	rng := rand.New(rand.NewPCG(seed, 11))
	mask := uint64(math.MaxUint64)
	if keyBits < 64 {
		mask = 1<<keyBits - 1
	}
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		x := uint64(i)
		if distinct > 0 {
			x = rng.Uint64N(uint64(distinct))
		}
		tuples[i] = relation.Tuple{Key: (x * 0x9E3779B97F4A7C15) & mask, Payload: rng.Uint64()}
	}
	rng.Shuffle(n, func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	return tuples
}

func TestGroupByDifferential(t *testing.T) {
	for _, keyBits := range []int{24, 64} {
		for _, n := range []int{0, 1, 2, 17, 2000, 50000} {
			for _, distinct := range []int{n/4 + 1, 0} {
				name := fmt.Sprintf("keyBits=%d/n=%d/distinct=%d", keyBits, n, distinct)
				t.Run(name, func(t *testing.T) {
					checkGroupBy(t, name, groupInput(n, distinct, keyBits, uint64(n)), 4, uint64(n))
				})
			}
		}
	}

	t.Run("bucket-local sort", func(t *testing.T) {
		// In chunks of 2^20 tuples and more the packed sort finishes its
		// buckets locally, through a leased staging buffer; one sink worker
		// hands the sort the whole input.
		n := 1<<20 + 3
		checkGroupBy(t, "bucket-local sort", groupInput(n, n/4, 24, 1), 1, 1)
	})

	t.Run("single group", func(t *testing.T) {
		tuples := groupInput(50000, 1, 64, 3)
		checkGroupBy(t, "single group", tuples, 3, 3)
	})

	t.Run("sum wraps", func(t *testing.T) {
		// Every payload is within 2^10 of the top of the domain, so each
		// group's sum wraps several times; the order in which chunks and
		// workers combine must not change the result.
		tuples := groupInput(40001, 64, 20, 5)
		for i := range tuples {
			tuples[i].Payload = math.MaxUint64 - tuples[i].Payload%1024
		}
		checkGroupBy(t, "sum wraps", tuples, 2, 5)
		got := aggregateChunks(tuples, AggSum, 2, nil)
		var total, want uint64
		for _, g := range got {
			total += g.Payload
		}
		for _, tu := range tuples {
			want += tu.Payload
		}
		if total != want {
			t.Fatalf("group sums add up to %d, want the wrapped total %d", total, want)
		}
	})

	t.Run("more workers than tuples", func(t *testing.T) {
		checkGroupBy(t, "sparse workers", groupInput(5, 2, 8, 9), 8, 9)
	})
}

func FuzzGroupByDifferential(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(16), uint8(2), uint8(2))
	f.Add(uint64(2), uint16(1), uint8(64), uint8(0), uint8(1))
	f.Add(uint64(3), uint16(2048), uint8(64), uint8(2), uint8(3))
	f.Add(uint64(4), uint16(5000), uint8(8), uint8(9), uint8(4))
	f.Add(uint64(5), uint16(65535), uint8(32), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, keyBits, dupShift, workers uint8) {
		bits := 1 + int(keyBits)%64
		distinct := 0 // all distinct
		if dupShift%16 != 0 {
			distinct = 1 + int(n)>>(dupShift%16)
		}
		tuples := groupInput(int(n), distinct, bits, seed)
		checkGroupBy(t, "fuzz", tuples, 1+int(workers)%4, seed)
	})
}

// BenchmarkAggregateTuples measures the sort-based group-by of materialized
// tuples at about four tuples per group, single-threaded and at GOMAXPROCS
// workers, with scratch drawn from a warm pool as the plan executor does.
func BenchmarkAggregateTuples(b *testing.B) {
	pool := memory.NewPool(0)
	for _, logN := range []int{16, 18, 20, 22} {
		n := 1 << logN
		tuples := groupInput(n, n/4, 32, uint64(logN))
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=2^%d/workers=%d", logN, workers), func(b *testing.B) {
				b.SetBytes(int64(n) * 16)
				for b.Loop() {
					lease := pool.Acquire()
					AggregateTuples(tuples, AggSum, workers, lease)
					lease.Release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
			})
		}
	}
}
