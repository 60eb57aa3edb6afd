package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"time"

	mpsm "repro"
	"repro/internal/batch"
	"repro/internal/mergejoin"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sorting"
	"repro/internal/stats"
	"repro/internal/workload"
)

// layerInput is the data a traced run feeds the layer probes: the workload's
// own join pair for the engine phases and kernels, and a query over its
// catalog for the front end, the planner and the executor.
type layerInput struct {
	// eng is the workload's warm engine, reused for the phase probes; nil
	// makes the probes build and warm their own.
	eng  *mpsm.Engine
	r, s *mpsm.Relation
	// want is r ⋈ s's reference summary, when the workload computed one.
	want     *joinSummary
	planText string
	cat      mpsm.MapCatalog
}

// probeReps is how many times each cheap probe repeats; its median is
// reported.
const probeReps = 5

// traceMain runs the workload's operation back to back for cfg.timed(),
// alternately without and with spans, and sets the tracing overhead and the
// memory metrics of those operations. m0 is the memory state at the start of
// the run: garbage collection is counted from there, set-up included, since
// set-up's allocations are what leave the collector work to do during the
// operations.
func traceMain(ctx context.Context, cfg config, rep *report, tr *tracer, eng *mpsm.Engine, m0 runtime.MemStats, op func(spanRef) error) error {
	var plain, traced []float64
	var m1 runtime.MemStats
	p0, _ := eng.PoolStats()
	start := time.Now()
	for i := 0; time.Since(start) < cfg.timed() || i < 4; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var sp spanRef
		if i%2 == 1 {
			sp = tr.op(rep.Workload)
		}
		t0 := time.Now()
		err := op(sp)
		d := ms(time.Since(t0))
		sp.end()
		rep.outcome(err)
		if i%2 == 1 {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
	}
	runtime.ReadMemStats(&m1)
	p1, _ := eng.PoolStats()
	setOverhead(rep, plain, traced)
	setGC(rep, m0, m1, len(plain)+len(traced), "over the run, set-up included")
	setRatio(rep, "memory.pool_reuse_ratio", p1.Hits-p0.Hits, p1.Gets-p0.Gets, "scratch buffers served from the pool / requested")
	return nil
}

func setOverhead(rep *report, plain, traced []float64) {
	p, t := median(plain), median(traced)
	rep.set("trace.overhead_pct", (t-p)/p*100, "%")
	rep.note("trace.overhead_pct", "median traced %.4g ms vs untraced %.4g ms over %d/%d alternating operations", t, p, len(traced), len(plain))
}

func setGC(rep *report, m0, m1 runtime.MemStats, ops int, window string) {
	cycles := m1.NumGC - m0.NumGC
	rep.set("memory.gc_cycles_per_op", float64(cycles)/float64(ops), "count")
	rep.note("memory.gc_cycles_per_op", "%d GC cycles / %d operations, %s", cycles, ops, window)
	rep.set("memory.gc_pause_ms", ms(time.Duration(m1.PauseTotalNs-m0.PauseTotalNs))/float64(ops), "ms")
	rep.note("memory.gc_pause_ms", "stop-the-world pause per operation, %s", window)
}

// setRatio reports num/den with its base.
func setRatio(rep *report, name string, num, den uint64, base string) {
	v := 0.0
	if den > 0 {
		v = float64(num) / float64(den)
	}
	rep.set(name, v, "ratio")
	rep.note(name, "%d / %d %s", num, den, base)
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := max(1, int(math.Ceil(p/100*float64(len(s)))))
	return s[rank-1]
}

// serveLayers drives mpsmd with the serve mix at the fixed rate and sets the
// mpsmd, load generator and service metrics; it then replays the mix in-process
// through Service. main marks the serve-mix workload itself, whose memory
// metrics and tracing overhead come from here.
func serveLayers(ctx context.Context, cfg config, rep *report, tr *tracer, c *serveClient, rng *workload.RNG, ref *serveRef, main bool) error {
	before, err := c.stats(ctx)
	if err != nil {
		return err
	}
	dur := cfg.timed()
	if !main {
		dur = 2 * time.Second
	}
	// Every other request is traced, so traced and untraced requests see
	// the same load and the difference of their medians is the overhead.
	send := func(ctx context.Context, q request) response {
		if q.ID%2 == 0 {
			return c.send(ctx, q)
		}
		sp := tr.op("http " + opNames[q.Kind])
		defer sp.end()
		return c.send(ctx, q)
	}
	arr := poissonSchedule(rng, serveRate, dur, pickMix)
	got, _ := openLoop(ctx, arr, conns, send)
	var plain, traced, overhead, size, late []float64
	for j, s := range got {
		q := arr[j].Req
		rep.outcome(ref.check(q, s.Res))
		if q.ID%2 == 0 {
			plain = append(plain, ms(s.Latency))
		} else {
			traced = append(traced, ms(s.Latency))
		}
		size = append(size, float64(s.Res.Bytes))
		late = append(late, ms(s.Late))
		if q.Kind != opWrite && s.Res.Status == http.StatusOK {
			overhead = append(overhead, ms(s.Res.RTT)-s.Res.ServerMillis)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	after, err := c.stats(ctx)
	if err != nil {
		return err
	}
	if main {
		setOverhead(rep, plain, traced)
	}
	rep.set("mpsmd.overhead_p50_ms", median(overhead), "ms")
	rep.note("mpsmd.overhead_p50_ms", "round trip minus the response's total_millis, %d query/join responses", len(overhead))
	rep.set("mpsmd.response_bytes", median(size), "bytes")
	rep.note("mpsmd.response_bytes", "median over %d responses", len(size))
	rep.set("loadgen.late_p99_ms", percentile(late, 99), "ms")
	rep.note("loadgen.late_p99_ms", "p99 of %d dispatches behind their due time", len(late))
	hits, misses := after.PlanCache.Hits-before.PlanCache.Hits, after.PlanCache.Misses-before.PlanCache.Misses
	setRatio(rep, "service.plancache_hit_ratio", hits, hits+misses, "plan-cache hits / lookups (mpsmd /v1/stats)")
	inv := after.PlanCache.Invalidations - before.PlanCache.Invalidations
	rep.set("service.plancache_invalidations", float64(inv), "count")
	setRatio(rep, "service.queued_ratio", after.Admission.Queued-before.Admission.Queued,
		after.Admission.Admitted-before.Admission.Admitted, "queries queued / admitted (mpsmd /v1/stats)")
	return serviceReplay(ctx, cfg, rep, tr, ref, main)
}

// replayOps is how many mix requests the in-process Service replay runs.
const replayOps = 200

// serviceReplay replays the serve mix closed loop through an in-process
// Service and sets service.self_p50_ms: call wall time minus the plan's own
// Total, i.e. compilation, plan cache, admission and result hand-off.
func serviceReplay(ctx context.Context, cfg config, rep *report, tr *tracer, ref *serveRef, setMemory bool) error {
	data := ref.data
	eng := mpsm.New(mpsm.WithWorkers(workers), mpsm.WithScratchPool(true), mpsm.WithAutoPlan(true))
	svc := mpsm.NewService(eng)
	defer svc.Close()
	cat := mpsm.MapCatalog{"r": data.r, "s": data.s, "t": data.t[0]}
	rng := workload.NewRNG(subSeed(cfg.seed, 40))
	version := 0
	var self []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p0, _ := eng.PoolStats()
	for range replayOps {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := pickMix(rng)
		sp := tr.op("replay " + opNames[q.Kind])
		switch q.Kind {
		case opWrite:
			version++
			cat["t"] = data.tAt(version)
		case opJoin:
			c := sp.child("Service.Join")
			t0 := time.Now()
			res, err := svc.Join(ctx, data.r, data.s)
			wall := time.Since(t0)
			c.end()
			if err == nil {
				self = append(self, ms(wall-res.Total))
				err = ref.joinRS().check("replay join", res)
			}
			rep.outcome(err)
		default:
			c := sp.child("Service.Query")
			t0 := time.Now()
			res, err := svc.Query(ctx, q.text(), cat)
			wall := time.Since(t0)
			c.end()
			if err == nil {
				self = append(self, ms(wall-res.Total))
				want := ref.twoWay(q.C)
				if q.Kind == opThreeWay {
					want = ref.threeWay(version)
				}
				err = checkRows("replay "+opNames[q.Kind], res.Output.Tuples, res.Output.Len(), want, 0)
			}
			rep.outcome(err)
		}
		sp.end()
	}
	runtime.ReadMemStats(&m1)
	p1, _ := eng.PoolStats()
	rep.set("service.self_p50_ms", median(self), "ms")
	rep.note("service.self_p50_ms", "Service call wall time minus PlanResult/Result Total, %d in-process calls", len(self))
	if setMemory {
		setGC(rep, m0, m1, replayOps, "in-process Service replay")
		setRatio(rep, "memory.pool_reuse_ratio", p1.Hits-p0.Hits, p1.Gets-p0.Gets, "scratch buffers served from the pool / requested (in-process Service replay)")
	}
	return nil
}

// serveProbe measures the serving layers for a workload that does not serve:
// a short session against its own mpsmd loaded with the serve-mix catalog.
func serveProbe(ctx context.Context, cfg config, rep *report, tr *tracer) error {
	if cfg.mpsmd == "" {
		return errors.New("traced runs need -mpsmd, the mpsmd binary to start")
	}
	data := newServeData(cfg.seed, cfg.shift)
	d, c, err := setupServe(ctx, cfg, data)
	if err != nil {
		return err
	}
	defer d.stop()
	defer c.close()
	return serveLayers(ctx, cfg, rep, tr, c, workload.NewRNG(subSeed(cfg.seed, 31)), newServeRef(data), false)
}

// finishTrace runs the layer probes on the workload's data, then writes the
// spans and reports each span name's self time.
func finishTrace(ctx context.Context, cfg config, rep *report, tr *tracer, li layerInput) error {
	if err := probeLayers(ctx, rep, tr, li); err != nil {
		return err
	}
	spans := tr.snapshot()
	rep.SelfTimes = selfTimes(spans)
	path := resultPath(cfg, "trace", "json")
	if err := writeTrace(path, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.note("trace.overhead_pct", "%s; %d spans in %s", rep.Notes["trace.overhead_pct"], len(spans), path)
	return nil
}

// timeIt runs fn reps times under a span and returns the median duration.
func timeIt(parent spanRef, name string, reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		sp := parent.child(name)
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
		sp.end()
	}
	return time.Duration(median(ds))
}

func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(max(n, 1)) }

// probeLayers calls each layer's public functions directly on the workload's
// data and sets the front-end, planner, executor, engine-phase and kernel
// metrics.
func probeLayers(ctx context.Context, rep *report, tr *tracer, li layerInput) error {
	root := tr.op("probes")
	defer root.end()

	// query: mpsm.Compile per text.
	texts := []string{li.planText, twoWayText(repeatConsts[0]), threeWayText}
	var compileErr error
	d := timeIt(root, "mpsm.Compile", probeReps*10, func() {
		for _, t := range texts {
			if _, err := mpsm.Compile(t, li.cat); err != nil {
				compileErr = err
			}
		}
	})
	if compileErr != nil {
		return fmt.Errorf("compiling probe queries: %w", compileErr)
	}
	rep.set("query.compile_us", float64(d)/float64(len(texts))/1e3, "us")

	// stats: one sampled profile per input relation.
	d = timeIt(root, "stats.CollectSample", probeReps, func() {
		stats.CollectSample(li.r, stats.DefaultSampleSize)
		stats.CollectSample(li.s, stats.DefaultSampleSize)
	})
	rep.set("stats.sample_ms", ms(d)/2, "ms")

	// planner: a cold Explain (fresh engine, so statistics are sampled too),
	// then ExplainAnalyze for the estimate error.
	plan, err := mpsm.Compile(li.planText, li.cat)
	if err != nil {
		return err
	}
	var planErr error
	d = timeIt(root, "Engine.Explain(cold)", probeReps, func() {
		if _, err := mpsm.New(mpsm.WithWorkers(workers), mpsm.WithAutoPlan(true)).Explain(plan); err != nil {
			planErr = err
		}
	})
	if planErr != nil {
		return fmt.Errorf("explaining probe query: %w", planErr)
	}
	rep.set("planner.plan_ms", ms(d), "ms")
	auto := mpsm.New(mpsm.WithWorkers(workers), mpsm.WithAutoPlan(true), mpsm.WithScratchPool(true))
	sp := root.child("Engine.ExplainAnalyze")
	ex, _, err := auto.ExplainAnalyze(ctx, plan)
	sp.end()
	if err != nil {
		return fmt.Errorf("analyzing probe query: %w", err)
	}
	byName := map[string]int{} // Explain names scans by relation name, not catalog name
	for _, rel := range li.cat {
		byName[rel.Name] = rel.Len()
	}
	worst, scanned := 0.0, 0
	for _, n := range ex.Nodes {
		if n.ActualRows >= 0 {
			worst = max(worst, math.Abs(math.Log2((n.EstRows+1)/(float64(n.ActualRows)+1))))
		}
		if n.Relation != "" {
			scanned += byName[n.Relation]
		}
	}
	rep.set("planner.est_error", worst, "log2")
	rep.note("planner.est_error", "max |log2((est+1)/(actual+1))| over %d plan nodes of %q", len(ex.Nodes), li.planText)

	// exec: the warm plan's scan, join and residual time per scanned tuple.
	var scan, join, resid []float64
	for range 3 {
		sp := root.child("Engine.RunPlan")
		pr, err := auto.RunPlan(ctx, plan)
		sp.end()
		if err != nil {
			return fmt.Errorf("running probe query: %w", err)
		}
		var joins time.Duration
		for _, j := range pr.Joins {
			joins += j.Result.Total
		}
		scan = append(scan, nsPer(pr.ScanTime, scanned))
		join = append(join, nsPer(joins, scanned))
		resid = append(resid, nsPer(pr.Total-pr.ScanTime-joins, scanned))
	}
	rep.set("exec.scan_ns_per_tuple", median(scan), "ns")
	rep.set("exec.join_ns_per_tuple", median(join), "ns")
	rep.set("exec.residual_ns_per_tuple", median(resid), "ns")
	rep.note("exec.residual_ns_per_tuple", "PlanResult Total - ScanTime - join Totals (aggregation, projection, materialization), per scanned tuple of %q", li.planText)

	if err := probeEngine(ctx, rep, root, li); err != nil {
		return err
	}
	probeKernels(rep, root, li)
	return nil
}

// probeEngine sets the P-MPSM phase and Radix hash join metrics from
// Result.Phases of one warm join of the workload's pair.
func probeEngine(ctx context.Context, rep *report, root spanRef, li layerInput) error {
	eng := li.eng
	if eng == nil {
		eng = mpsm.New(mpsm.WithWorkers(workers), mpsm.WithScratchPool(true))
		if _, err := eng.Join(ctx, li.r, li.s, mpsm.WithAlgorithm(mpsm.PMPSM), mpsm.WithAutoPlan(false)); err != nil {
			return err
		}
	}
	want := li.want
	if want == nil {
		w := hashOracle(li.r.Tuples, li.s.Tuples)
		want = &w
	}
	tuples := li.r.Len() + li.s.Len()
	sp := root.child("Engine.Join(P-MPSM)")
	res, err := eng.Join(ctx, li.r, li.s, mpsm.WithAlgorithm(mpsm.PMPSM), mpsm.WithAutoPlan(false), mpsm.WithScheduler(mpsm.Static), mpsm.WithPerWorkerStats())
	sp.end()
	rep.outcome(errors.Join(err, want.check("probe P-MPSM join", res)))
	if err != nil {
		return nil
	}
	for i := 1; i <= 4; i++ {
		rep.set(fmt.Sprintf("core.phase%d_ns_per_tuple", i), nsPer(res.PhaseDuration(fmt.Sprintf("phase %d", i)), tuples), "ns")
	}
	lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
	for _, w := range res.PerWorker {
		var total time.Duration
		for _, p := range w.Phases {
			total += p.Duration
		}
		lo, hi = min(lo, total), max(hi, total)
	}
	if lo > 0 {
		rep.set("core.worker_imbalance", float64(hi)/float64(lo), "ratio")
		rep.note("core.worker_imbalance", "slowest / fastest of %d P-MPSM workers: %v / %v", len(res.PerWorker), hi, lo)
	}

	sp = root.child("Engine.Join(Radix)")
	res, err = eng.Join(ctx, li.r, li.s, mpsm.WithAlgorithm(mpsm.RadixHash), mpsm.WithAutoPlan(false))
	sp.end()
	rep.outcome(errors.Join(err, want.check("probe Radix join", res)))
	if err != nil {
		return nil
	}
	rep.set("hashjoin.partition_ns_per_tuple", nsPer(res.PhaseDuration("partition"), tuples), "ns")
	rep.set("hashjoin.build_probe_ns_per_tuple", nsPer(res.PhaseDuration("build+probe"), tuples), "ns")
	return nil
}

// probeKernels times the sort, partition and merge kernels on one worker's
// share of the workload's pair.
func probeKernels(rep *report, root spanRef, li layerInput) {
	chunkR := li.r.Tuples[:max(li.r.Len()/workers, 1)]
	chunkS := li.s.Tuples[:max(li.s.Len()/workers, 1)]

	sKeys, sPays := make([]uint64, len(chunkS)), make([]uint64, len(chunkS))
	perm := make([]int32, len(chunkS))
	d := timeIt(root, "sorting.SortTuplesIntoColumns", probeReps, func() {
		sorting.SortTuplesIntoColumns(chunkS, sKeys, sPays, perm)
	})
	rep.set("sorting.run_ns_per_tuple", nsPer(d, len(chunkS)), "ns")

	var maxKey uint64
	for _, t := range chunkR {
		maxKey = max(maxKey, t.Key)
	}
	cfg := partition.NewRadixConfig(10, maxKey)
	split := partition.UniformSplitters(cfg.Clusters(), workers)
	sizes := partition.PartitionSizes(partition.BuildHistogram(chunkR, cfg), split, workers)
	targets := make([][]relation.Tuple, workers)
	for p := range targets {
		targets[p] = make([]relation.Tuple, sizes[p])
	}
	d = timeIt(root, "partition.BuildHistogram+Scatter", probeReps, func() {
		partition.BuildHistogram(chunkR, cfg)
		partition.Scatter(chunkR, cfg, split, targets, make([]int, workers))
	})
	rep.set("partition.scatter_ns_per_tuple", nsPer(d, len(chunkR)), "ns")

	rKeys, rPays := make([]uint64, len(chunkR)), make([]uint64, len(chunkR))
	sorting.SortTuplesIntoColumns(chunkR, rKeys, rPays, nil)
	sc := batch.NewScratch(0, nil)
	d = timeIt(root, "mergejoin.JoinColumns", probeReps, func() {
		var agg mergejoin.MaxAggregate
		mergejoin.JoinColumns(rKeys, rPays, sKeys, sPays, &agg, sc)
	})
	rep.set("mergejoin.columns_ns_per_tuple", nsPer(d, len(chunkR)+len(chunkS)), "ns")

	priv, pub := sortedByKey(chunkR), sortedByKey(chunkS)
	runs := []*relation.Run{{Tuples: pub}}
	d = timeIt(root, "mergejoin.JoinBandAgainstRuns", probeReps, func() {
		var agg mergejoin.MaxAggregate
		mergejoin.JoinBandAgainstRuns(priv, runs, skewBand, &agg)
	})
	rep.set("mergejoin.band_ns_per_tuple", nsPer(d, len(priv)+len(pub)), "ns")
	rep.note("mergejoin.band_ns_per_tuple", "band width %d, one worker's share: %d private x %d public tuples", skewBand, len(priv), len(pub))
}
