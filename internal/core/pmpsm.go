package core

import (
	"context"
	"time"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/sorting"
)

// PMPSM executes the range-partitioned massively parallel sort-merge join
// (Sections 3.2 and 4), the paper's main in-memory contribution.
//
// Phases (Figure 5):
//
//	phase 1  chunk the public input S and sort the chunks into local runs;
//	phase 2  range partition the private input R: build the global S CDF from
//	         per-run equi-height histograms (2.1), build fine-grained radix
//	         histograms on the R chunks (2.2), compute load-balancing
//	         splitters and scatter R into per-worker range partitions via
//	         precomputed prefix sums — no synchronization, sequential writes
//	         only (2.3);
//	phase 3  sort each private range partition into a run;
//	phase 4  every worker merge joins its private run with the relevant,
//	         interpolation-searched fraction of every public run, streaming
//	         every matching pair into the configured sink.
//
// The private input should be the smaller relation; see the role-reversal
// experiment (Section 5.4).
//
// With Options.Scheduler == sched.Morsel, phase 4 runs as stolen
// (private-segment, public-run) morsels: when the splitters misjudge the
// distribution (estimation error, value skew), the overloaded worker's run
// is processed by whoever is idle, with a preference for NUMA-local morsels.
// Results are identical to the static mode.
//
// Runs are column runs for every join kind (see columnar.go): phase 1 sorts
// the public chunks into key/payload columns, and phase 3 sorts each
// row-scattered private partition into columns, which doubles as the AoS→SoA
// conversion.
//
// Cancellation is checked at every phase boundary and once per chunk inside
// the sort and merge loops; a canceled context aborts the join and returns
// ctx.Err().
func PMPSM(ctx context.Context, private, public *relation.Relation, opts Options) (*result.Result, error) {
	opts = opts.normalize()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	res := &result.Result{Algorithm: "P-MPSM", Workers: workers}
	rt := runtimeFor(opts)
	lease := leaseFor(opts)
	defer lease.Release()
	start := time.Now()

	publicChunks := public.Split(workers)
	privateChunks := private.Split(workers)
	publicRuns := make([]*batch.Run, workers)
	privateRuns := make([]*batch.Run, workers)

	// Phase 1: sort the public input chunks into local runs.
	phase1 := rt.Phase(ctx, "phase 1", func(ctx context.Context, w *sched.Worker) {
		publicRuns[w.ID()] = sortChunkIntoColumnRun(publicChunks[w.ID()], chunkSourceNode(w.ID(), workers, opts.Topology), opts.PresortedPublic, w, lease)
	})
	res.AddPhase("phase 1", phase1)
	if err := checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 2: range partition the private input. The partitioning scatters
	// the row-oriented input chunks into one row buffer per worker; the S CDF
	// bounds are read off the public key columns.
	var partitions [][]relation.Tuple
	phase2 := result.StopwatchPhase(func() {
		partitions = rangePartitionPrivate(ctx, rt, privateChunks, publicRuns, opts, lease)
	})
	res.AddPhase("phase 2", phase2)
	if err := checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 3: sort each private range partition into a column run. The sort
	// doubles as the AoS→SoA conversion: the scattered partition sorts
	// directly into the run's columns and its row buffer goes back to the
	// lease.
	phase3 := rt.Phase(ctx, "phase 3", func(ctx context.Context, w *sched.Worker) {
		part := partitions[w.ID()]
		run := batch.NewRun(w.ID(), opts.Topology.NodeOfWorker(w.ID()), len(part), lease)
		sorting.SortTuplesIntoColumnsLeased(part, run.Keys, run.Payloads, lease)
		lease.PutTuples(part)
		privateRuns[w.ID()] = run
		if tracker := w.Tracker(); tracker != nil {
			n := uint64(len(part))
			tracker.RandRead(run.Node, 2*n)
			tracker.RandWrite(run.Node, 2*n)
		}
	})
	res.AddPhase("phase 3", phase3)
	if err := checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}

	// Phase 4: merge join every private run with the relevant fraction of
	// every public run, located via interpolation search. Matching pairs
	// stream into the sink through per-worker writers (no synchronization).
	// In morsel mode the same work runs as stolen segment morsels instead.
	out := sink.BindChecked(opts.Sink, workers, lease, opts.KeyCheck)
	phase4, scanned := matchPhase(ctx, rt, "phase 4", privateRuns, publicRuns, out, opts, false, lease)
	res.AddPhase("phase 4", phase4)
	// Close runs even on cancellation: the sink was opened and its writers
	// consumed tuples, so it must learn the execution ended. The context
	// error still wins as the join's outcome.
	closeErr := out.Close()
	if err := checkpoint(ctx, rt, lease); err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}

	for w := 0; w < workers; w++ {
		res.PublicScanned += scanned[w]
	}
	res.Matches = out.Matches()
	res.MaxSum = out.MaxSum()
	res.Batch.Batches, res.Batch.Tuples = out.Batches()
	res.Total = time.Since(start)
	if opts.CollectPerWorker {
		res.PerWorker = rt.Breakdowns([]string{"phase 1", "phase 2", "phase 3", "phase 4"})
		for w := range res.PerWorker {
			res.PerWorker[w].PrivateTuples = privateRuns[w].Len()
			res.PerWorker[w].PublicScanned = scanned[w]
			res.PerWorker[w].Matches = out.WorkerMatches(w)
		}
	}
	if opts.TrackNUMA {
		res.NUMA = rt.NUMAStats()
		res.SimulatedNUMACost = opts.CostModel.Estimate(res.NUMA)
	}
	res.Scratch = lease.Stats()
	return res, nil
}

// rangePartitionPrivate implements phase 2 of P-MPSM: it returns one private
// partition (still unsorted) per worker, holding exactly the tuples of that
// worker's key range. On cancellation it returns early with whatever it has
// built; the caller checks ctx after the phase and discards the partial
// state. All parallel steps run as "phase 2" barriers on the shared runtime,
// so the per-worker breakdown accumulates them under one label. Histogram,
// cursor and partition buffers come from the join's scratch lease.
func rangePartitionPrivate(ctx context.Context, rt *sched.Runtime, privateChunks []relation.Chunk, publicRuns []*batch.Run, opts Options, lease *memory.Lease) [][]relation.Tuple {
	workers := opts.Workers

	// Phase 2.1: per-run equi-height bounds merged into the global S CDF.
	// The bounds are read off the already-sorted public key columns, so this
	// costs almost nothing.
	boundsPerRun := make([][]uint64, workers)
	runLens := make([]int, workers)
	rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		boundsPerRun[w.ID()] = partition.EquiHeightBoundsKeys(publicRuns[w.ID()].Keys, opts.CDFBoundsPerRun)
		runLens[w.ID()] = publicRuns[w.ID()].Len()
	})
	if canceled(ctx) || rt.Err() != nil {
		return nil
	}
	cdf := partition.BuildCDF(boundsPerRun, runLens)

	// Phase 2.2: fine-grained radix histograms on the private chunks. Each
	// worker also determines the maximum key of its chunk so that the radix
	// configuration can be derived without a separate pass.
	chunkMax := make([]uint64, workers)
	rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		var localMax uint64
		for _, t := range privateChunks[w.ID()].Tuples {
			if t.Key > localMax {
				localMax = t.Key
			}
		}
		chunkMax[w.ID()] = localMax
		if tracker := w.Tracker(); tracker != nil {
			tracker.SeqRead(chunkSourceNode(w.ID(), workers, opts.Topology), uint64(len(privateChunks[w.ID()].Tuples)))
		}
	})
	if canceled(ctx) || rt.Err() != nil {
		return nil
	}
	var maxKey uint64
	for _, m := range chunkMax {
		if m > maxKey {
			maxKey = m
		}
	}
	cfg := partition.NewRadixConfig(opts.HistogramBits, maxKey)

	histograms := make([]partition.Histogram, workers)
	rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		histograms[w.ID()] = partition.BuildHistogramInto(lease.Ints(cfg.Clusters()), privateChunks[w.ID()].Tuples, cfg)
		if tracker := w.Tracker(); tracker != nil {
			tracker.SeqRead(chunkSourceNode(w.ID(), workers, opts.Topology), uint64(len(privateChunks[w.ID()].Tuples)))
		}
	})
	if canceled(ctx) || rt.Err() != nil {
		return nil
	}

	// Phase 2.3: splitter computation, prefix sums, and the
	// synchronization-free scatter into precomputed sub-partitions.
	globalR := partition.CombineHistograms(histograms)
	var sp partition.SplitterVector
	switch opts.Splitters {
	case SplitterUniform:
		sp = partition.UniformSplitters(cfg.Clusters(), workers)
	case SplitterEquiHeight:
		sp = partition.EquiHeightSplitters(globalR, workers)
	default:
		sp = partition.ComputeSplitters(globalR, cdf, cfg, partition.DefaultSplitterCost(workers))
	}
	ps := partition.ComputePrefixSums(histograms, sp, workers)

	partitions := make([][]relation.Tuple, workers)
	for p := range partitions {
		partitions[p] = lease.Tuples(ps.Sizes[p])
	}

	rt.Phase(ctx, "phase 2", func(ctx context.Context, w *sched.Worker) {
		cursors := lease.Ints(workers)
		copy(cursors, ps.Offsets[w.ID()])
		before := lease.Ints(workers)
		copy(before, cursors)
		partition.Scatter(privateChunks[w.ID()].Tuples, cfg, sp, partitions, cursors)
		if tracker := w.Tracker(); tracker != nil {
			// The chunk is read sequentially from its source node; every
			// target sub-partition is written sequentially on the target
			// worker's node (remote, but sequential — commandments C1/C2).
			tracker.SeqRead(chunkSourceNode(w.ID(), workers, opts.Topology), uint64(len(privateChunks[w.ID()].Tuples)))
			for p := 0; p < workers; p++ {
				tracker.SeqWrite(opts.Topology.NodeOfWorker(p), uint64(cursors[p]-before[p]))
			}
		}
		lease.PutInts(cursors)
		lease.PutInts(before)
	})
	return partitions
}
