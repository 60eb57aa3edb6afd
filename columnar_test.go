package mpsm

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/mergejoin"
)

// pairCollector is a mergejoin.Consumer that keeps every oracle pair.
type pairCollector []Pair

func (c *pairCollector) Consume(r, s Tuple) { *c = append(*c, Pair{R: r, S: s}) }

// oraclePairs is the brute-force answer of one join flavour, canonically
// sorted: the quadratic band oracle for band > 0, the hash-based kind oracle
// otherwise.
func oraclePairs(kind JoinKind, band uint64, r, s *Relation) []Pair {
	var c pairCollector
	if band > 0 {
		mergejoin.ReferenceJoinBand(r.Tuples, s.Tuples, band, &c)
	} else {
		mergejoin.ReferenceJoinKind(kind, r.Tuples, s.Tuples, &c)
	}
	sortPairs(c)
	return c
}

// requireOraclePairs compares a materialized join with the oracle pair for
// pair, public keys included.
func requireOraclePairs(t *testing.T, name string, mat *MaterializeSink, res *Result, want []Pair) {
	t.Helper()
	got := append([]Pair(nil), mat.Pairs()...)
	sortPairs(got)
	if len(got) != len(want) || res.Matches != uint64(len(want)) {
		t.Fatalf("%s: %d pairs (Matches %d), oracle %d", name, len(got), res.Matches, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, oracle %+v", name, i, got[i], want[i])
		}
	}
}

// joinFlavour is one join kind or band join.
type joinFlavour struct {
	name string
	kind JoinKind
	band uint64
}

func (f joinFlavour) options() []Option {
	if f.band > 0 {
		return []Option{WithBandWidth(f.band)}
	}
	return []Option{WithKind(f.kind)}
}

var joinFlavours = []joinFlavour{
	{"inner", InnerJoin, 0},
	{"left-outer", LeftOuterJoin, 0},
	{"semi", SemiJoin, 0},
	{"anti", AntiJoin, 0},
	{"band", InnerJoin, 3},
}

// TestColumnarRowParityAllAlgorithms is the differential gate for the
// columnar execution path against the row-form brute-force oracles: every
// algorithm, under both schedulers, with the scratch pool on and off, and for
// the default batch size and a small odd batch size that forces frequent
// flushes, must materialize the exact multiset of pairs the oracle produces.
// B-MPSM and P-MPSM run every join flavour — inner, left-outer, semi, anti
// and band, whose pairs keep the public tuple's own key — while the other
// algorithms run inner joins. The adversarial distributions (uniform,
// low-skew, high-skew over a narrow domain) provoke heavy duplicate-key
// cross products and a mix of matched and unmatched private tuples.
func TestColumnarRowParityAllAlgorithms(t *testing.T) {
	type dataset struct {
		name string
		r, s *Relation
	}
	datasets := []dataset{
		{"fk-uniform", GenerateUniform("R", 800, 201), nil},
		{"narrow-low-skew", GenerateSkewedWithDomain("R", 400, 300, SkewLow80, 203), GenerateSkewedWithDomain("S", 1200, 300, SkewLow80, 204)},
		{"narrow-high-skew", GenerateSkewedWithDomain("R", 400, 250, SkewHigh80, 205), GenerateSkewedWithDomain("S", 1200, 250, SkewHigh80, 206)},
	}
	datasets[0].s = GenerateForeignKey("S", datasets[0].r, 3200, 202)

	for _, ds := range datasets {
		want := make(map[string][]Pair, len(joinFlavours))
		for _, f := range joinFlavours {
			want[f.name] = oraclePairs(f.kind, f.band, ds.r, ds.s)
		}
		for _, pool := range []bool{false, true} {
			engine := New(WithWorkers(3), WithScratchPool(pool))
			for _, alg := range allAlgorithms {
				flavours := joinFlavours[:1]
				if alg == BMPSM || alg == PMPSM {
					flavours = joinFlavours
				}
				for _, f := range flavours {
					for _, sched := range []Scheduler{Static, Morsel} {
						for _, batchSize := range []int{0, 33} {
							name := fmt.Sprintf("%s/%v/%s/pool=%v/sched=%v/batch=%d",
								ds.name, alg, f.name, pool, sched, batchSize)
							mat := NewMaterializeSink()
							opts := append([]Option{WithAlgorithm(alg), WithScheduler(sched),
								WithBatchSize(batchSize), WithSink(mat)}, f.options()...)
							res, err := engine.Join(context.Background(), ds.r, ds.s, opts...)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							requireOraclePairs(t, name, mat, res, want[f.name])
						}
					}
				}
			}
		}
	}
}

// TestColumnarBatchCounters pins when Result.Batch reports traffic: the
// batch-emitting algorithms (B-MPSM and P-MPSM inner joins, and the hash
// joins, which always batch their probe output) must report it, and a
// non-positive WithBatchSize selects the default batch size rather than a
// different path, so it reports the same traffic as the default.
func TestColumnarBatchCounters(t *testing.T) {
	r := GenerateUniform("R", 1000, 207)
	s := GenerateForeignKey("S", r, 4000, 208)
	engine := New(WithWorkers(4))

	for _, alg := range []Algorithm{BMPSM, PMPSM, Wisconsin, RadixHash} {
		res, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Matches == 0 {
			t.Fatalf("%v: no matches, test dataset is broken", alg)
		}
		if res.Batch.Batches == 0 || res.Batch.Tuples != res.Matches {
			t.Fatalf("%v: Batch = %+v with %d matches; want nonzero batches covering every match",
				alg, res.Batch, res.Matches)
		}
	}

	for _, alg := range []Algorithm{BMPSM, PMPSM} {
		base, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		res, err := engine.Join(context.Background(), r, s, WithAlgorithm(alg), WithBatchSize(-1))
		if err != nil {
			t.Fatalf("%v batch -1: %v", alg, err)
		}
		if res.Batch != base.Batch || res.Matches != base.Matches || res.MaxSum != base.MaxSum {
			t.Fatalf("%v: WithBatchSize(-1) gave Batch %+v (%d, %d), default Batch %+v (%d, %d)",
				alg, res.Batch, res.Matches, res.MaxSum, base.Batch, base.Matches, base.MaxSum)
		}
	}
}

// TestColumnarBandAndKindsEmitPerPair pins how the band and non-inner join
// kinds deliver their results: they run on the same column runs as inner
// joins but hand every pair to the sink individually — a band pair's two
// keys differ and a non-inner result carries the zero public tuple, neither
// of which a one-key batch can express — so Result.Batch stays zero and the
// batch size cannot change the result.
func TestColumnarBandAndKindsEmitPerPair(t *testing.T) {
	r := GenerateSkewedWithDomain("R", 500, 2000, SkewNone, 209)
	s := GenerateSkewedWithDomain("S", 1500, 2000, SkewNone, 210)
	engine := New(WithWorkers(3))

	for _, alg := range []Algorithm{BMPSM, PMPSM} {
		for _, f := range joinFlavours[1:] {
			want := oraclePairs(f.kind, f.band, r, s)
			for _, batchSize := range []int{-1, 0, 4096} {
				name := fmt.Sprintf("%v/%s/batch=%d", alg, f.name, batchSize)
				mat := NewMaterializeSink()
				res, err := engine.Join(context.Background(), r, s,
					append([]Option{WithAlgorithm(alg), WithBatchSize(batchSize), WithSink(mat)}, f.options()...)...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Batch.Batches != 0 {
					t.Fatalf("%s: reported batch traffic %+v", name, res.Batch)
				}
				requireOraclePairs(t, name, mat, res, want)
			}
		}
	}
}
