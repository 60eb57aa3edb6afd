//go:build !race

package exec

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sink"
)

// measurePlanAllocBytes runs the plan once on a warmed pool and reports the
// heap bytes allocated by the execution.
func measurePlanAllocBytes(t *testing.T, p *Plan, pool *memory.Pool) uint64 {
	t.Helper()
	for i := 0; i < 2; i++ { // warm the pool's free lists
		if _, err := RunPlan(context.Background(), p, pool); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	bytes := measureAllocBytes(func() { _, err = RunPlan(context.Background(), p, pool) })
	if err != nil {
		t.Fatal(err)
	}
	return bytes
}

// measureAllocBytes reports the heap bytes fn allocates.
func measureAllocBytes(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamingAggregateAllocatesNoHashTable verifies the headline property
// of the merge-based GroupAggregate above a P-MPSM join: with the scratch
// pool warm, aggregating tens of thousands of groups allocates no more than
// the caller-owned output copy plus a small fixed overhead — in particular,
// nothing proportional to the group count beyond the output itself, which is
// what any hash-table aggregation would add (per-worker maps plus bucket
// arrays). The in-situ comparison is a materialize-then-hash plan over the
// same data: the materialize+sort plan, whose sorted aggregation draws all
// but its output from the pool, plus the hash table the test's map oracle
// builds over the same materialized input.
func TestStreamingAggregateAllocatesNoHashTable(t *testing.T) {
	r, s := dataset(20000, 4, 311) // ~20k distinct keys, 80k pairs
	groups := distinctKeys(r.Tuples)
	opts := core.Options{Workers: 4}

	streaming := &Plan{}
	j := streaming.AddJoin(streaming.AddScan(r, nil), streaming.AddScan(s, nil), AlgorithmPMPSM, opts, core.DiskOptions{})
	streaming.AddGroupAggregate(j, sink.AggSum)

	sorted := &Plan{}
	js := sorted.AddJoin(sorted.AddScan(r, nil), sorted.AddScan(s, nil), AlgorithmPMPSM, opts, core.DiskOptions{})
	sorted.AddGroupAggregate(sorted.AddProject(js, sink.DefaultProjection), sink.AggSum)

	var materialized collectConsumer
	mergejoin.ReferenceJoin(r.Tuples, s.Tuples, &materialized)

	streamBytes := measurePlanAllocBytes(t, streaming, memory.NewPool(0))
	sortBytes := measurePlanAllocBytes(t, sorted, memory.NewPool(0))
	var oracle []relation.Tuple
	oracleBytes := measureAllocBytes(func() { oracle = referenceGroups(materialized.rows, sink.AggSum) })
	// The oracle's map is the hash table; its sorted output slice stands in
	// for the sort plan's output, which sortBytes already counts.
	hashBytes := sortBytes + oracleBytes - uint64(cap(oracle))*16

	// The caller keeps the output, so one fresh copy of the groups is
	// unavoidable; everything else must come from the pool. 256 KiB covers
	// the fixed per-join overhead (runtime, phases, result structs) with
	// ample slack — a hash table for 20k groups alone would exceed it.
	outputBytes := uint64(groups) * 16
	budget := 2*outputBytes + 256<<10
	if streamBytes > budget {
		t.Errorf("streaming aggregation allocated %d bytes for %d groups, budget %d: something builds per-group state outside the pool",
			streamBytes, groups, budget)
	}
	if streamBytes*2 > hashBytes {
		t.Errorf("streaming aggregation (%d bytes) is not clearly leaner than materialize+hash (%d bytes: %d for the materialize+sort plan, %d for the map oracle)",
			streamBytes, hashBytes, sortBytes, oracleBytes)
	}
}

// TestMergeGroupsAllocationIndependentOfGroupCount drives the merge-group
// sink directly: the number of allocations must not grow with the number of
// distinct keys (a hash table's would), because every per-group entry lives
// in leased buffers.
func TestMergeGroupsAllocationIndependentOfGroupCount(t *testing.T) {
	pool := memory.NewPool(0)
	run := func(keys int) float64 {
		return testing.AllocsPerRun(5, func() {
			lease := pool.Acquire()
			snk := sink.NewMergeGroups(sink.AggSum, nil)
			snk.SetScratch(lease)
			snk.Open(2)
			for w := 0; w < 2; w++ {
				wr := snk.Writer(w)
				for pass := 0; pass < 2; pass++ { // two sorted segments per worker
					for k := 0; k < keys; k++ {
						wr.Consume(relation.Tuple{Key: uint64(k), Payload: 1}, relation.Tuple{Payload: 2})
					}
				}
			}
			if err := snk.Close(); err != nil {
				t.Fatal(err)
			}
			if len(snk.Groups()) != keys {
				t.Fatalf("got %d groups, want %d", len(snk.Groups()), keys)
			}
			lease.Release()
		})
	}
	run(1000) // warm the pool at the larger class sizes first
	small, large := run(100), run(50000)
	// The fixed overhead (writers, segment bookkeeping, the final output
	// slice) is a couple dozen allocations; 500× more groups must not add
	// more than a handful (output-slice size classes differ).
	if large > small+16 {
		t.Fatalf("allocations grew with the group count: %0.f for 100 keys vs %0.f for 50000 keys", small, large)
	}
}
