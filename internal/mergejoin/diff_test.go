package mergejoin_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/batch"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sink"
)

// The differential tests of the column kernels: the band kernel
// (JoinBandColumns) and the kinds kernel (JoinRunsKind) run the way the MPSM
// match phase drives them — the private run cut into segments, each segment
// joined against every public run — and must produce exactly the pairs of the
// brute-force oracles, public keys and zero public tuples included.

// sorted returns the tuples in ascending key order.
func sorted(tuples []relation.Tuple) []relation.Tuple {
	out := append([]relation.Tuple(nil), tuples...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// toRun deinterleaves key-sorted tuples into a column run.
func toRun(tuples []relation.Tuple) *batch.Run {
	run := &batch.Run{Keys: make([]uint64, len(tuples)), Payloads: make([]uint64, len(tuples))}
	batch.Deinterleave(tuples, run.Keys, run.Payloads)
	return run
}

// canonical sorts pairs by every field so that outputs compare as multisets.
func canonical(pairs []sink.Pair) []sink.Pair {
	out := append([]sink.Pair(nil), pairs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.R != b.R {
			if a.R.Key != b.R.Key {
				return a.R.Key < b.R.Key
			}
			return a.R.Payload < b.R.Payload
		}
		if a.S.Key != b.S.Key {
			return a.S.Key < b.S.Key
		}
		return a.S.Payload < b.S.Payload
	})
	return out
}

// materialize runs fn against a one-worker sink.Materialize and returns the
// pairs it received.
func materialize(fn func(out mergejoin.Consumer)) []sink.Pair {
	m := sink.NewMaterialize()
	m.Open(1)
	fn(m.Writer(0))
	if err := m.Close(); err != nil {
		panic(err)
	}
	return m.Pairs()
}

// oracle is the brute-force answer: ReferenceJoinBand for band > 0,
// ReferenceJoinKind otherwise, over the union of the public runs.
func oracle(kind mergejoin.Kind, band uint64, private []relation.Tuple, public [][]relation.Tuple) []sink.Pair {
	var all []relation.Tuple
	for _, run := range public {
		all = append(all, run...)
	}
	return materialize(func(out mergejoin.Consumer) {
		if band > 0 {
			mergejoin.ReferenceJoinBand(private, all, band, out)
		} else {
			mergejoin.ReferenceJoinKind(kind, private, all, out)
		}
	})
}

// kernels joins the key-sorted private run, cut into segments at the
// ascending positions cuts, against the key-sorted public runs: band and
// inner joins pair every segment with every run, the other kinds join a
// segment against all runs in one JoinRunsKind call. batchSize sizes the
// kernel scratch, which is shared across calls like a worker's scratch.
func kernels(kind mergejoin.Kind, band uint64, private []relation.Tuple, public [][]relation.Tuple, cuts []int, batchSize int) []sink.Pair {
	priv := toRun(private)
	runs := make([]*batch.Run, len(public))
	for i, p := range public {
		runs[i] = toRun(p)
	}
	sc := batch.NewScratch(batchSize, nil)
	defer sc.Close()
	return materialize(func(out mergejoin.Consumer) {
		lo := 0
		for _, hi := range append(cuts, len(private)) {
			keys, pays := priv.Keys[lo:hi], priv.Payloads[lo:hi]
			lo = hi
			switch {
			case band > 0:
				for _, pub := range runs {
					mergejoin.JoinBandColumns(keys, pays, pub.Keys, pub.Payloads, band, out)
				}
			case kind == mergejoin.Inner:
				for _, pub := range runs {
					mergejoin.JoinColumnsWithSkip(keys, pays, pub.Keys, pub.Payloads, out, sc)
				}
			default:
				mergejoin.JoinRunsKind(context.Background(), kind, keys, pays, runs, out, sc)
			}
		}
	})
}

// checkKernels compares the kernels with the oracle pair for pair.
func checkKernels(t testing.TB, name string, kind mergejoin.Kind, band uint64, private []relation.Tuple, public [][]relation.Tuple, cuts []int, batchSize int) {
	t.Helper()
	want := canonical(oracle(kind, band, private, public))
	got := canonical(kernels(kind, band, private, public, cuts, batchSize))
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, oracle %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, oracle %+v", name, i, got[i], want[i])
		}
	}
}

// tuples builds a key-sorted run from keys, payloads numbered from base.
func tuples(base uint64, keys ...uint64) []relation.Tuple {
	out := make([]relation.Tuple, len(keys))
	for i, k := range keys {
		out[i] = relation.Tuple{Key: k, Payload: base + uint64(i)}
	}
	return sorted(out)
}

// groupCuts returns every segment cut a duplicate-key group suggests: each
// group's first index and, for groups of three or more, one cut inside it.
func groupCuts(run []relation.Tuple) []int {
	var cuts []int
	for i := 1; i < len(run); i++ {
		if run[i].Key != run[i-1].Key {
			cuts = append(cuts, i)
		} else if i >= 2 && run[i-2].Key == run[i].Key && (i == len(run)-1 || run[i+1].Key != run[i].Key) {
			cuts = append(cuts, i-1)
		}
	}
	return cuts
}

var allKinds = []mergejoin.Kind{mergejoin.Inner, mergejoin.LeftOuter, mergejoin.Semi, mergejoin.Anti}

func TestColumnKernelsDifferentialEdgeCases(t *testing.T) {
	const maxKey = math.MaxUint64
	cases := []struct {
		name    string
		private []relation.Tuple
		public  [][]relation.Tuple
		bands   []uint64
	}{
		{
			name:    "match only in last public run",
			private: tuples(10, 3, 7, 7, 11),
			public:  [][]relation.Tuple{tuples(100, 1, 2), tuples(200, 4, 5), tuples(300, 7, 7, 12)},
			bands:   []uint64{1, 4},
		},
		{
			name:    "empty private",
			private: nil,
			public:  [][]relation.Tuple{tuples(100, 1, 2), nil},
			bands:   []uint64{3},
		},
		{
			name:    "empty public runs",
			private: tuples(10, 1, 2, 2),
			public:  [][]relation.Tuple{nil, nil, nil},
			bands:   []uint64{3},
		},
		{
			name:    "some public runs empty",
			private: tuples(10, 1, 5, 9),
			public:  [][]relation.Tuple{nil, tuples(100, 5, 6), nil},
			bands:   []uint64{1},
		},
		{
			name:    "all-equal keys",
			private: tuples(10, 42, 42, 42, 42, 42),
			public:  [][]relation.Tuple{tuples(100, 42, 42, 42), tuples(200, 42, 42)},
			bands:   []uint64{1, maxKey},
		},
		{
			name:    "band underflow at 0",
			private: tuples(10, 0, 0, 1, 2),
			public:  [][]relation.Tuple{tuples(100, 0, 1, 3, 9), tuples(200, 0, 4)},
			bands:   []uint64{2, 5, maxKey - 1, maxKey},
		},
		{
			name:    "band overflow at MaxUint64",
			private: tuples(10, maxKey-2, maxKey, maxKey),
			public:  [][]relation.Tuple{tuples(100, maxKey-5, maxKey-1, maxKey), tuples(200, 0, maxKey)},
			bands:   []uint64{1, 3, maxKey},
		},
		{
			name:    "keys at both ends",
			private: tuples(10, 0, 1, maxKey-1, maxKey),
			public:  [][]relation.Tuple{tuples(100, 0, maxKey), tuples(200, 1, 2, maxKey-2)},
			bands:   []uint64{1, 1 << 63, maxKey},
		},
	}
	for _, tc := range cases {
		cutSets := [][]int{nil, groupCuts(tc.private)}
		for _, cuts := range cutSets {
			for _, batchSize := range []int{0, 1, 3} {
				for _, kind := range allKinds {
					name := fmt.Sprintf("%s/%v/cuts=%v/batch=%d", tc.name, kind, cuts, batchSize)
					checkKernels(t, name, kind, 0, tc.private, tc.public, cuts, batchSize)
				}
				for _, band := range tc.bands {
					name := fmt.Sprintf("%s/band=%d/cuts=%v", tc.name, band, cuts)
					checkKernels(t, name, mergejoin.Inner, band, tc.private, tc.public, cuts, batchSize)
				}
			}
		}
	}
}

func TestColumnKernelsDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		domain := uint64(1 + rng.Intn(200))
		draw := func(n int, base uint64) []relation.Tuple {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() % domain
			}
			return tuples(base, keys...)
		}
		private := draw(rng.Intn(300), 0)
		public := make([][]relation.Tuple, 1+rng.Intn(4))
		for i := range public {
			public[i] = draw(rng.Intn(300), uint64(i+1)<<20)
		}
		cuts := groupCuts(private)
		for _, kind := range allKinds {
			checkKernels(t, fmt.Sprintf("trial %d/%v", trial, kind), kind, 0, private, public, cuts, 7)
		}
		band := uint64(1 + rng.Intn(4))
		checkKernels(t, fmt.Sprintf("trial %d/band=%d", trial, band), mergejoin.Inner, band, private, public, cuts, 7)
	}
}

// TestColumnKernelsKeepPublicKeys pins the emission contract through a real
// sink: band pairs carry the public tuple's own key (which differs from the
// private key), and non-inner results carry the zero public tuple — neither
// may be rebuilt from the private key column.
func TestColumnKernelsKeepPublicKeys(t *testing.T) {
	private := tuples(10, 5, 20)
	public := [][]relation.Tuple{tuples(100, 3, 6)}

	band := kernels(mergejoin.Inner, 2, private, public, nil, 0)
	if len(band) != 2 {
		t.Fatalf("band pairs = %+v, want (5,3) and (5,6)", band)
	}
	for _, p := range band {
		if p.R.Key != 5 || (p.S.Key != 3 && p.S.Key != 6) || p.S.Payload < 100 {
			t.Fatalf("band pair %+v lost its public key or payload", p)
		}
	}

	// No private key has an equal public key, so every left-outer and anti
	// result is an unmatched private tuple padded with the zero public tuple.
	for _, kind := range []mergejoin.Kind{mergejoin.LeftOuter, mergejoin.Anti} {
		got := kernels(kind, 0, private, public, nil, 0)
		if len(got) != len(private) {
			t.Fatalf("%v: %d results, want %d", kind, len(got), len(private))
		}
		for _, p := range got {
			if p.S != (relation.Tuple{}) || p.R.Payload < 10 {
				t.Fatalf("%v: result %+v is not a private tuple with the zero public tuple", kind, p)
			}
		}
	}
	semi := kernels(mergejoin.Semi, 0, tuples(10, 3), public, nil, 0)
	if len(semi) != 1 || semi[0].S != (relation.Tuple{}) || semi[0].R.Key != 3 {
		t.Fatalf("semi results = %+v, want key 3 with the zero public tuple", semi)
	}
}

// fuzzBands are the band widths the fuzzer picks from: 0 (the equi-join
// kinds), small windows, and widths that saturate at both ends of the key
// domain.
var fuzzBands = []uint64{0, 1, 2, 5, 1 << 63, math.MaxUint64}

// FuzzColumnKindsDifferential decodes random sorted columns, a join kind, a
// band width and segment cuts from the fuzz input and checks the column
// kernels against the oracles. Each data byte is one tuple: bit 7 picks the
// private or the public side, bit 6 puts the key near 0 or near MaxUint64,
// and the low bits choose the key within 16 values, so duplicates are dense
// and the band arithmetic saturates.
func FuzzColumnKindsDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), []byte{0x01, 0x81, 0x02, 0x82})
	f.Add(uint8(1), uint8(0), uint8(2), uint8(2), []byte{0x03, 0x03, 0x83, 0x05, 0x85, 0x85})
	f.Add(uint8(2), uint8(0), uint8(3), uint8(1), []byte{0x40, 0x4f, 0xcf, 0xc0, 0x07})
	f.Add(uint8(3), uint8(0), uint8(0), uint8(3), []byte{0x00, 0x80, 0x4f, 0xcf})
	f.Add(uint8(0), uint8(5), uint8(2), uint8(2), []byte{0x00, 0x4f, 0x80, 0xcf, 0x41, 0xc1})
	f.Add(uint8(0), uint8(2), uint8(1), uint8(0), []byte{0x0f, 0x0f, 0x8e, 0x8f, 0x90})
	f.Fuzz(func(t *testing.T, kindB, bandB, runsB, segB uint8, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		kind := mergejoin.Kind(kindB % 4)
		band := fuzzBands[int(bandB)%len(fuzzBands)]
		if band > 0 {
			kind = mergejoin.Inner
		}
		var private, public []relation.Tuple
		for i, b := range data {
			key := uint64(b & 0x0f)
			if b&0x40 != 0 {
				key = math.MaxUint64 - key
			}
			tup := relation.Tuple{Key: key, Payload: uint64(i)}
			if b&0x80 != 0 {
				public = append(public, tup)
			} else {
				private = append(private, tup)
			}
		}
		private = sorted(private)
		runs := make([][]relation.Tuple, 1+int(runsB)%4)
		for i, tup := range public {
			runs[i%len(runs)] = append(runs[i%len(runs)], tup)
		}
		for i := range runs {
			runs[i] = sorted(runs[i])
		}
		var cuts []int
		if step := int(segB) % 8; step > 0 {
			for c := step; c < len(private); c += step {
				cuts = append(cuts, c)
			}
		}
		checkKernels(t, fmt.Sprintf("%v/band=%d", kind, band), kind, band, private, runs, cuts, 1+int(segB)%5)
	})
}
