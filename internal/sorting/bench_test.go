package sorting

import (
	"fmt"
	"testing"
)

// BenchmarkSortTuplesIntoColumns measures run generation — the fused
// AoS→SoA radix sort every MPSM worker runs on its chunk — on uniform 32-bit
// keys from 2^18 to 2^23 tuples, reporting ns/tuple. The upper sizes are
// where per-worker chunks of large joins land, above the 2^20 the committed
// sort baselines stop at, so a per-tuple cost that grows with n shows here.
// Not gated: run with
//
//	go test -run '^$' -bench SortTuplesIntoColumns ./internal/sorting/
func BenchmarkSortTuplesIntoColumns(b *testing.B) {
	for lg := 18; lg <= 23; lg++ {
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
