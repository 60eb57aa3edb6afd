package mergejoin

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/batch"
	"repro/internal/relation"
)

// sortedColumns builds a key-sorted tuple slice from (key, payload) pairs and
// returns it along with its deinterleaved columns.
func sortedColumns(tuples []relation.Tuple) ([]relation.Tuple, []uint64, []uint64) {
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key < tuples[j].Key })
	keys := make([]uint64, len(tuples))
	pays := make([]uint64, len(tuples))
	batch.Deinterleave(tuples, keys, pays)
	return tuples, keys, pays
}

// randomSorted generates a sorted run with heavy duplicate groups: keys are
// drawn from a small domain so most keys collide, exercising the cross-product
// emission.
func randomSorted(n int, domain uint64, seed int64) ([]relation.Tuple, []uint64, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{Key: rng.Uint64() % domain, Payload: rng.Uint64()}
	}
	return sortedColumns(tuples)
}

// TestJoinColumnsMatchesRowJoin requires the columnar kernel's output to be
// pair-for-pair identical (same pairs, same order) to the row kernel's, over
// duplicate-heavy inputs and several scratch sizes that force mid-group batch
// flushes.
func TestJoinColumnsMatchesRowJoin(t *testing.T) {
	cases := []struct {
		name             string
		nR, nS           int
		domainR, domainS uint64
	}{
		{"dense-duplicates", 300, 300, 20, 25},
		{"sparse", 500, 500, 1 << 40, 1 << 40},
		{"all-equal", 40, 40, 1, 1},
		{"empty-private", 0, 100, 100, 50},
		{"empty-public", 100, 0, 100, 50},
		{"skewed", 1000, 1000, 7, 900},
	}
	for _, tc := range cases {
		rTuples, rKeys, rPays := randomSorted(tc.nR, max64(tc.domainR, 1), 1)
		sTuples, sKeys, sPays := randomSorted(tc.nS, max64(tc.domainS, 1), 2)

		var want Materializer
		Join(rTuples, sTuples, &want)

		for _, scratchSize := range []int{0, 1, 3, 7} {
			var got Materializer
			sc := batch.NewScratch(scratchSize, nil)
			JoinColumns(rKeys, rPays, sKeys, sPays, &got, sc)
			requireSamePairs(t, tc.name, scratchSize, want.Out, got.Out)
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func requireSamePairs(t *testing.T, name string, scratchSize int, want, got []JoinedTuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s (scratch %d): %d pairs, want %d", name, scratchSize, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s (scratch %d): pair %d is %+v, want %+v", name, scratchSize, i, got[i], want[i])
		}
	}
}

// TestJoinColumnsWithSkipMatchesRow requires the skip variant to emit the row
// join's pairs and to scan exactly the public tuples inside the private key
// range.
func TestJoinColumnsWithSkipMatchesRow(t *testing.T) {
	// Private run covering a narrow key band in the middle of the public run.
	rTuples := make([]relation.Tuple, 0, 64)
	for k := uint64(5000); k < 5064; k++ {
		rTuples = append(rTuples, relation.Tuple{Key: k, Payload: k * 3})
	}
	rTuples, rKeys, rPays := sortedColumns(rTuples)
	sTuples, sKeys, sPays := randomSorted(20000, 10000, 3)

	var want Materializer
	Join(rTuples, sTuples, &want)
	lo := sort.Search(len(sKeys), func(i int) bool { return sKeys[i] >= 5000 })
	hi := sort.Search(len(sKeys), func(i int) bool { return sKeys[i] > 5063 })

	var got Materializer
	gotScanned := JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays, &got, nil)
	if gotScanned != hi-lo {
		t.Fatalf("scanned %d, want %d", gotScanned, hi-lo)
	}
	requireSamePairs(t, "with-skip", 0, want.Out, got.Out)
}

// TestJoinColumnRunsCtx checks the inner multi-run kernel (JoinRunsKind with
// Inner) against per-run row joins and that cancellation stops between runs.
func TestJoinColumnRunsCtx(t *testing.T) {
	rTuples, rKeys, rPays := randomSorted(400, 50, 4)
	var runs []*batch.Run
	var want Materializer
	var wantScanned int
	for i := 0; i < 4; i++ {
		sTuples, sKeys, sPays := randomSorted(300, 60, int64(5+i))
		runs = append(runs, &batch.Run{Worker: i, Node: 0, Keys: sKeys, Payloads: sPays})
		Join(rTuples, sTuples, &want)
		wantScanned += JoinColumnsWithSkip(rKeys, rPays, sKeys, sPays, &Counter{}, nil)
	}

	var got Materializer
	gotScanned := JoinRunsKind(context.Background(), Inner, rKeys, rPays, runs, &got, nil)
	if gotScanned != wantScanned {
		t.Fatalf("scanned %d, want %d", gotScanned, wantScanned)
	}
	requireSamePairs(t, "column-runs", 0, want.Out, got.Out)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []Kind{Inner, LeftOuter, Semi, Anti} {
		var none Materializer
		if n := JoinRunsKind(canceled, kind, rKeys, rPays, runs, &none, nil); n != 0 || len(none.Out) != 0 {
			t.Fatalf("%v: canceled context still scanned %d and emitted %d pairs", kind, n, len(none.Out))
		}
	}
}

// TestConsumeColumnsAggregates checks the vectorized BatchConsumer
// implementations against their per-pair siblings.
func TestConsumeColumnsAggregates(t *testing.T) {
	keys := []uint64{1, 2, 3, 4, 5}
	rp := []uint64{10, 0, 30, 5, 50}
	sp := []uint64{1, 100, 3, 4, 5}

	var perPair, batched MaxAggregate
	for i := range keys {
		perPair.Consume(relation.Tuple{Key: keys[i], Payload: rp[i]}, relation.Tuple{Key: keys[i], Payload: sp[i]})
	}
	// Deliver in two batches to exercise the running-max fold across batches.
	batched.ConsumeColumns(keys[:2], rp[:2], sp[:2])
	batched.ConsumeColumns(keys[2:], rp[2:], sp[2:])
	batched.ConsumeColumns(nil, nil, nil) // empty batch is a no-op
	if perPair != batched {
		t.Fatalf("MaxAggregate diverged: per-pair %+v, batched %+v", perPair, batched)
	}

	var c Counter
	c.ConsumeColumns(keys, rp, sp)
	if c.Count != uint64(len(keys)) {
		t.Fatalf("Counter.ConsumeColumns counted %d, want %d", c.Count, len(keys))
	}
}

// plainConsumer records pairs without implementing BatchConsumer, forcing
// EmitColumns onto the per-pair fallback.
type plainConsumer struct{ pairs []JoinedTuple }

func (p *plainConsumer) Consume(r, s relation.Tuple) {
	p.pairs = append(p.pairs, JoinedTuple{Key: r.Key, RPayload: r.Payload, SPayload: s.Payload})
}

// TestEmitColumnsFallback checks that consumers without a batch fast path
// receive the identical per-pair stream.
func TestEmitColumnsFallback(t *testing.T) {
	rTuples, rKeys, rPays := randomSorted(200, 15, 6)
	sTuples, sKeys, sPays := randomSorted(200, 15, 7)

	var want Materializer
	Join(rTuples, sTuples, &want)

	var plain plainConsumer
	JoinColumns(rKeys, rPays, sKeys, sPays, &plain, nil)
	requireSamePairs(t, "fallback", 0, want.Out, plain.pairs)
}
