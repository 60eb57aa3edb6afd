package core

import (
	"context"
	"time"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
)

// B-MPSM and P-MPSM run every join on column runs: run generation sorts each
// chunk into a sorted key column plus its permuted payload column
// (structure-of-arrays, batch.Run), and the match phase scans contiguous key
// columns with the kernels of internal/mergejoin — batch-emitting equi-join
// kernels for inner joins, JoinBandColumns for band joins and JoinRunsKind
// for the left-outer, semi and anti kinds. D-MPSM keeps row pages.

// sortChunkIntoColumnRun sorts one chunk of the input relation into a
// worker-local column run whose buffers come from the join's scratch lease
// (or fresh allocations when pooling is off). The redistribution into
// NUMA-local memory the paper prescribes ("chunk the data, redistribute, and
// then sort/work on your data locally") is fused with the first radix digit:
// one sequential read of the array-of-structs chunk feeds the deinterleaving
// first scatter of SortTuplesIntoColumns, so neither the copy nor the AoS→SoA
// representation change costs a separate pass.
//
// srcNode is the NUMA node the source chunk resides on (the input relation is
// assumed to be range-chunked over the nodes); the run itself is allocated on
// the worker's home node. If presorted is true and the chunk is verified to be
// in key order already, the sorting pass is skipped (exploiting pre-existing
// sort orders, as the paper suggests) and the chunk is merely deinterleaved.
func sortChunkIntoColumnRun(chunk relation.Chunk, srcNode int, presorted bool, w *sched.Worker, lease *memory.Lease) *batch.Run {
	n := len(chunk.Tuples)
	run := batch.NewRun(w.ID(), w.Node(), n, lease)
	skippedSort := presorted && relation.IsSortedByKey(chunk.Tuples)
	if skippedSort {
		batch.Deinterleave(chunk.Tuples, run.Keys, run.Payloads)
	} else {
		sorting.SortTuplesIntoColumnsLeased(chunk.Tuples, run.Keys, run.Payloads, lease)
	}

	if tracker := w.Tracker(); tracker != nil {
		un := uint64(n)
		// Copying reads the source sequentially and writes the local run
		// sequentially; sorting then performs O(n) passes of local random
		// accesses (the radix scatter plus the in-cache leaf work, charged as
		// two read/write passes).
		tracker.SeqRead(srcNode, un)
		tracker.SeqWrite(run.Node, un)
		if !skippedSort {
			tracker.RandRead(run.Node, 2*un)
			tracker.RandWrite(run.Node, 2*un)
		}
	}
	return run
}

// workerScratches leases one kernel scratch per worker for the match phase.
// Scratches are per-worker, not per-task: a worker executes one morsel at a
// time, so its scratch is never shared.
func workerScratches(workers, size int, lease *memory.Lease) []*batch.Scratch {
	scratches := make([]*batch.Scratch, workers)
	for w := range scratches {
		scratches[w] = batch.NewScratch(size, lease)
	}
	return scratches
}

// closeScratches hands every worker scratch back to the lease.
func closeScratches(scratches []*batch.Scratch) {
	for _, sc := range scratches {
		sc.Close()
	}
}

// matcher is the match phase shared by B-MPSM (phase 3) and P-MPSM (phase 4):
// the join's kind and band, the sink writers, per-worker kernel scratch and
// per-worker public-scan counters.
type matcher struct {
	opts      Options
	out       *sink.Bound
	scratches []*batch.Scratch
	scanned   []int
	// fullScan makes inner equi-joins scan every public run in full instead
	// of skipping to the private keys' range: B-MPSM's defining O(|S|)
	// per-worker join work under the static scheduler.
	fullScan bool
}

// matchPhase runs the match phase under the configured scheduler and returns
// its duration and the public tuples each worker scanned. Static: worker w
// joins its own private run against every public run. Morsel: the same work
// runs as stolen segment tasks (see columnMatchTasks). Both lease their
// per-worker kernel scratch before the phase starts.
func matchPhase(ctx context.Context, rt *sched.Runtime, name string, privateRuns, publicRuns []*batch.Run, out *sink.Bound, opts Options, fullScan bool, lease *memory.Lease) (time.Duration, []int) {
	m := &matcher{
		opts:      opts,
		out:       out,
		scratches: workerScratches(opts.Workers, opts.BatchSize, lease),
		scanned:   make([]int, opts.Workers),
		fullScan:  fullScan && opts.Scheduler != sched.Morsel,
	}
	defer closeScratches(m.scratches)
	if opts.Scheduler == sched.Morsel {
		return rt.RunTasks(ctx, name, m.columnMatchTasks(ctx, privateRuns, publicRuns)), m.scanned
	}
	return rt.Phase(ctx, name, func(ctx context.Context, w *sched.Worker) {
		priv := privateRuns[w.ID()]
		m.join(ctx, w, priv.Node, priv.Keys, priv.Payloads, publicRuns)
	}), m.scanned
}

// join joins one private key/payload segment living on node against the
// given public runs on worker w. Inner and band joins take the runs one at a
// time, checking cancellation between them; the non-inner kinds carry their
// matched bitmap across all runs inside one JoinRunsKind call.
func (m *matcher) join(ctx context.Context, w *sched.Worker, node int, keys, pays []uint64, publicRuns []*batch.Run) {
	out := m.out.Writer(w.ID())
	sc := m.scratches[w.ID()]
	tracker := w.Tracker()
	if m.opts.Band == 0 && m.opts.Kind != mergejoin.Inner {
		n := mergejoin.JoinRunsKind(ctx, m.opts.Kind, keys, pays, publicRuns, out, sc)
		m.scanned[w.ID()] += n
		if tracker != nil {
			// The segment is re-scanned once per public run; the public
			// scans are approximated as evenly spread over the runs.
			tracker.SeqRead(node, uint64(len(keys))*uint64(len(publicRuns)))
			for _, pub := range publicRuns {
				tracker.SeqRead(pub.Node, uint64(n/len(publicRuns)))
			}
		}
		return
	}
	for _, pub := range publicRuns {
		if canceled(ctx) {
			return
		}
		var n int
		switch {
		case m.opts.Band > 0:
			n = mergejoin.JoinBandColumns(keys, pays, pub.Keys, pub.Payloads, m.opts.Band, out)
		case m.fullScan:
			mergejoin.JoinColumns(keys, pays, pub.Keys, pub.Payloads, out, sc)
			n = pub.Len()
		default:
			n = mergejoin.JoinColumnsWithSkip(keys, pays, pub.Keys, pub.Payloads, out, sc)
		}
		m.scanned[w.ID()] += n
		if tracker != nil {
			// The private segment is re-scanned once per public run
			// (locally); the public run is scanned sequentially on whichever
			// node it lives.
			tracker.SeqRead(node, uint64(len(keys)))
			tracker.SeqRead(pub.Node, uint64(n))
		}
	}
}

// columnMatchTasks builds the morsel task list of the match phase: every
// private run is cut into segments of at most opts.MorselSize tuples, and
// each segment becomes one or more independent tasks that any worker may
// steal. A task prefers the NUMA node its private run lives on, and streams
// into the stealing worker's sink writer, scratch and counters, so no
// synchronization is needed beyond the queue itself.
//
// The segmentation is correct for every join flavour because all of them
// have per-private-tuple semantics:
//
//   - inner and band joins pair a segment with a single public run; the
//     interpolation-searched window bounds the scan to the segment's reach,
//   - the non-inner kinds (left-outer, semi, anti) track per-tuple match
//     state across all public runs, so one task joins a segment against
//     every public run, keeping the matched bitmap task-local. publicRuns
//     always holds one (possibly empty) run per worker, so such a task
//     never misses the final unmatched-emission pass.
func (m *matcher) columnMatchTasks(ctx context.Context, privateRuns, publicRuns []*batch.Run) []sched.Task {
	perRun := m.opts.Band > 0 || m.opts.Kind == mergejoin.Inner
	var tasks []sched.Task
	for _, priv := range privateRuns {
		node := priv.Node
		sched.ForEachSegment(priv.Len(), m.opts.MorselSize, func(lo, hi int) {
			keys, pays := priv.Keys[lo:hi], priv.Payloads[lo:hi]
			if !perRun {
				tasks = append(tasks, sched.Task{Node: node, Run: func(w *sched.Worker) {
					m.join(ctx, w, node, keys, pays, publicRuns)
				}})
				return
			}
			for i := range publicRuns {
				pubs := publicRuns[i : i+1]
				tasks = append(tasks, sched.Task{Node: node, Run: func(w *sched.Worker) {
					m.join(ctx, w, node, keys, pays, pubs)
				}})
			}
		})
	}
	return tasks
}
