package mergejoin

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/batch"
	"repro/internal/relation"
)

// columnRuns distributes sorted tuples round-robin into n sorted column runs.
func columnRuns(tuples []relation.Tuple, n int) []*batch.Run {
	runs := make([]*batch.Run, n)
	for i := range runs {
		runs[i] = &batch.Run{Worker: i}
	}
	for i, t := range tuples {
		run := runs[i%n]
		run.Keys = append(run.Keys, t.Key)
		run.Payloads = append(run.Payloads, t.Payload)
	}
	return runs
}

// columnsOf deinterleaves tuples into fresh key and payload columns.
func columnsOf(tuples []relation.Tuple) ([]uint64, []uint64) {
	keys := make([]uint64, len(tuples))
	pays := make([]uint64, len(tuples))
	batch.Deinterleave(tuples, keys, pays)
	return keys, pays
}

// joinRunsKind runs JoinRunsKind on a row-form private run.
func joinRunsKind(kind Kind, private []relation.Tuple, runs []*batch.Run, out Consumer) int {
	keys, pays := columnsOf(private)
	return JoinRunsKind(context.Background(), kind, keys, pays, runs, out, nil)
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Inner: "inner", LeftOuter: "left-outer", Semi: "semi", Anti: "anti", Kind(7): "Kind(7)"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !Inner.Valid() || !Anti.Valid() || Kind(9).Valid() || Kind(-1).Valid() {
		t.Fatal("Valid() misclassifies kinds")
	}
}

func TestJoinRunsKindSmall(t *testing.T) {
	private := []relation.Tuple{{Key: 1, Payload: 10}, {Key: 2, Payload: 20}, {Key: 3, Payload: 30}, {Key: 3, Payload: 31}}
	public := []relation.Tuple{{Key: 2, Payload: 200}, {Key: 3, Payload: 300}, {Key: 5, Payload: 500}}
	runs := columnRuns(public, 2)

	t.Run("inner", func(t *testing.T) {
		var m Materializer
		joinRunsKind(Inner, private, runs, &m)
		if len(m.Out) != 3 { // key 2 once, key 3 twice (two private duplicates)
			t.Fatalf("inner results = %d, want 3", len(m.Out))
		}
	})
	t.Run("left outer", func(t *testing.T) {
		var m Materializer
		joinRunsKind(LeftOuter, private, runs, &m)
		// 3 inner matches + 1 unmatched private tuple (key 1).
		if len(m.Out) != 4 {
			t.Fatalf("outer results = %d, want 4", len(m.Out))
		}
		foundNull := false
		for _, o := range m.Out {
			if o.Key == 1 && o.SPayload == 0 {
				foundNull = true
			}
		}
		if !foundNull {
			t.Fatal("outer join missing the NULL-padded tuple for key 1")
		}
	})
	t.Run("semi", func(t *testing.T) {
		var m Materializer
		joinRunsKind(Semi, private, runs, &m)
		// Keys 2, 3, 3 have partners; each private tuple emitted once.
		if len(m.Out) != 3 {
			t.Fatalf("semi results = %d, want 3", len(m.Out))
		}
	})
	t.Run("anti", func(t *testing.T) {
		var m Materializer
		joinRunsKind(Anti, private, runs, &m)
		if len(m.Out) != 1 || m.Out[0].Key != 1 {
			t.Fatalf("anti results = %+v, want only key 1", m.Out)
		}
	})
}

func TestJoinRunsKindEmptyInputs(t *testing.T) {
	public := columnRuns([]relation.Tuple{{Key: 1}}, 2)
	for _, kind := range []Kind{Inner, LeftOuter, Semi, Anti} {
		var c Counter
		if n := joinRunsKind(kind, nil, public, &c); n != 0 || c.Count != 0 {
			t.Fatalf("%v with empty private: scanned %d, results %d", kind, n, c.Count)
		}
	}
	// Empty public input: outer and anti emit every private tuple, semi and
	// inner emit nothing.
	private := []relation.Tuple{{Key: 1}, {Key: 2}}
	counts := map[Kind]uint64{Inner: 0, LeftOuter: 2, Semi: 0, Anti: 2}
	for kind, want := range counts {
		var c Counter
		joinRunsKind(kind, private, nil, &c)
		if c.Count != want {
			t.Fatalf("%v with empty public: results %d, want %d", kind, c.Count, want)
		}
	}
}

func TestJoinRunsKindPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind should panic")
		}
	}()
	joinRunsKind(Kind(42), []relation.Tuple{{Key: 1}}, nil, &Counter{})
}

func TestJoinRunsKindMatchOnlyInLastRun(t *testing.T) {
	// A private tuple whose only partner lives in the last public run must
	// be classified as matched (semi yes, anti no, outer no NULL row).
	private := []relation.Tuple{{Key: 7, Payload: 70}}
	runs := []*batch.Run{
		{Worker: 0, Keys: []uint64{1}, Payloads: []uint64{0}},
		{Worker: 1, Keys: []uint64{2}, Payloads: []uint64{0}},
		{Worker: 2, Keys: []uint64{7}, Payloads: []uint64{700}},
	}
	var semi, anti, outer Counter
	joinRunsKind(Semi, private, runs, &semi)
	joinRunsKind(Anti, private, runs, &anti)
	joinRunsKind(LeftOuter, private, runs, &outer)
	if semi.Count != 1 || anti.Count != 0 || outer.Count != 1 {
		t.Fatalf("semi=%d anti=%d outer=%d, want 1/0/1", semi.Count, anti.Count, outer.Count)
	}
}

func TestJoinRunsKindMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		rKeys := make([]uint64, 800)
		sKeys := make([]uint64, 2500)
		for i := range rKeys {
			rKeys[i] = rng.Uint64() % 500
		}
		for i := range sKeys {
			sKeys[i] = rng.Uint64() % 500
		}
		private := sortedTuples(rKeys, 100)
		public := sortedTuples(sKeys, 900)
		runs := columnRuns(public, 4)

		for _, kind := range []Kind{Inner, LeftOuter, Semi, Anti} {
			var got, want MaxAggregate
			joinRunsKind(kind, private, runs, &got)
			ReferenceJoinKind(kind, private, public, &want)
			if got.Count != want.Count || (got.Count > 0 && got.Max != want.Max) {
				t.Fatalf("trial %d, %v: got (%d, %d), want (%d, %d)",
					trial, kind, got.Count, got.Max, want.Count, want.Max)
			}
		}
	}
}

func TestJoinRunsKindCardinalityRelations(t *testing.T) {
	// Property: |semi| + |anti| = |R|; |outer| = |inner| + |anti|, for any
	// inputs.
	f := func(rRaw, sRaw []uint16) bool {
		rKeys := make([]uint64, len(rRaw))
		for i, k := range rRaw {
			rKeys[i] = uint64(k % 128)
		}
		sKeys := make([]uint64, len(sRaw))
		for i, k := range sRaw {
			sKeys[i] = uint64(k % 128)
		}
		private := sortedTuples(rKeys, 0)
		public := sortedTuples(sKeys, 0)
		runs := columnRuns(public, 3)

		counts := map[Kind]uint64{}
		for _, kind := range []Kind{Inner, LeftOuter, Semi, Anti} {
			var c Counter
			joinRunsKind(kind, private, runs, &c)
			counts[kind] = c.Count
		}
		if counts[Semi]+counts[Anti] != uint64(len(private)) {
			return false
		}
		return counts[LeftOuter] == counts[Inner]+counts[Anti]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestJoinRunsKindReusesScratchBitmap runs the non-inner kinds twice through
// one scratch: the matched bitmap must come back cleared, or the second
// call would inherit the first call's matches.
func TestJoinRunsKindReusesScratchBitmap(t *testing.T) {
	hit := []relation.Tuple{{Key: 4, Payload: 1}}
	miss := []relation.Tuple{{Key: 9, Payload: 2}}
	runs := columnRuns([]relation.Tuple{{Key: 4, Payload: 40}}, 1)
	sc := batch.NewScratch(0, nil)
	defer sc.Close()
	for _, private := range [][]relation.Tuple{hit, miss} {
		keys, pays := columnsOf(private)
		var anti Counter
		JoinRunsKind(context.Background(), Anti, keys, pays, runs, &anti, sc)
		want := uint64(0)
		if private[0].Key == 9 {
			want = 1
		}
		if anti.Count != want {
			t.Fatalf("anti join of key %d: %d results, want %d", private[0].Key, anti.Count, want)
		}
	}
}

func TestReferenceJoinKindInnerDelegates(t *testing.T) {
	r := sortedTuples([]uint64{1, 2, 3}, 10)
	s := sortedTuples([]uint64{2, 3, 3}, 20)
	var a, b MaxAggregate
	ReferenceJoinKind(Inner, r, s, &a)
	ReferenceJoin(r, s, &b)
	if a.Count != b.Count || a.Max != b.Max {
		t.Fatal("ReferenceJoinKind(Inner) should match ReferenceJoin")
	}
}

// TestHelpersProduceSortedRuns keeps the test helpers honest about the
// kernels' input expectations (sorted private/public runs).
func TestHelpersProduceSortedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = rng.Uint64() % 50
	}
	tuples := sortedTuples(keys, 0)
	if !sort.SliceIsSorted(tuples, func(i, j int) bool { return tuples[i].Key < tuples[j].Key }) {
		t.Fatal("sortedTuples helper did not sort")
	}
	for _, run := range columnRuns(tuples, 3) {
		if !sort.SliceIsSorted(run.Keys, func(i, j int) bool { return run.Keys[i] < run.Keys[j] }) {
			t.Fatal("columnRuns broke the sort order")
		}
		if len(run.Payloads) != run.Len() {
			t.Fatal("columnRuns produced ragged columns")
		}
	}
}
