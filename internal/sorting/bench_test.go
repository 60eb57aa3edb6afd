package sorting

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/relation"
)

// BenchmarkSortTuplesIntoColumns measures run generation — the fused
// AoS→SoA radix sort every MPSM worker runs on its chunk — on uniform 32-bit
// keys from 2^18 to 2^24 tuples, reporting ns/tuple. The upper sizes are
// where per-worker chunks of large joins land, above the 2^20 the committed
// sort baselines stop at, so a per-tuple cost that grows with n shows here.
// Not gated: run with
//
//	go test -run '^$' -bench SortTuplesIntoColumns ./internal/sorting/
func BenchmarkSortTuplesIntoColumns(b *testing.B) {
	for lg := 18; lg <= 24; lg++ {
		n := 1 << lg
		b.Run(fmt.Sprintf("n=2^%d", lg), func(b *testing.B) {
			src := makeTuples(n, int64(lg), 1<<32)
			keys := make([]uint64, n)
			pays := make([]uint64, n)
			for b.Loop() {
				SortTuplesIntoColumns(src, keys, pays, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
		})
	}
}

// BenchmarkSortTuplesIntoColumnsParallel runs run generation in phase 1's
// shape: GOMAXPROCS goroutines at once, each sorting its own 2^23-tuple chunk
// of uniform 32-bit keys into its own columns, reporting wall-clock ns/tuple
// per worker. Concurrent sorts share the last-level cache and the memory
// bus, which the single-threaded benchmark never sees. Each goroutine holds
// 256 MiB of input and output. Not gated.
func BenchmarkSortTuplesIntoColumnsParallel(b *testing.B) {
	const n = 1 << 23
	workers := runtime.GOMAXPROCS(0)
	srcs := make([][]relation.Tuple, workers)
	keys := make([][]uint64, workers)
	pays := make([][]uint64, workers)
	for w := range workers {
		srcs[w] = makeTuples(n, int64(w), 1<<32)
		keys[w] = make([]uint64, n)
		pays[w] = make([]uint64, n)
	}
	for b.Loop() {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				SortTuplesIntoColumns(srcs[w], keys[w], pays[w], nil)
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
}
