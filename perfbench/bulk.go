package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	mpsm "repro"
)

// bulk-equi sizes: |R| = 2^22 and |S| = 2^24 tuples (about 320 MB), larger
// than the last-level cache, as in the paper's evaluation.
const (
	bulkRBits = 22
	bulkSBits = 24
)

// bulkEngine is the paper's configuration: P-MPSM, static scheduling, the
// scratch pool on.
func bulkEngine() *mpsm.Engine {
	return mpsm.New(mpsm.WithWorkers(workers), mpsm.WithAlgorithm(mpsm.PMPSM),
		mpsm.WithScheduler(mpsm.Static), mpsm.WithScratchPool(true))
}

// runBulk is the bulk-equi workload: the paper's query
// max(R.payload + S.payload) over a uniform foreign-key join, closed loop,
// one join at a time.
func runBulk(ctx context.Context, cfg config, rep *report) error {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	nR, nS := 1<<(bulkRBits-cfg.shift), 1<<(bulkSBits-cfg.shift)
	var r, s *mpsm.Relation
	var eng *mpsm.Engine
	var setups []float64
	for range cfg.setupReps() {
		r, s, eng = nil, nil, nil
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		r = mpsm.GenerateUniform("R", nR, subSeed(cfg.seed, 1))
		s = mpsm.GenerateForeignKey("S", r, nS, subSeed(cfg.seed, 2))
		eng = bulkEngine()
		if _, err := eng.Join(ctx, r, s); err != nil {
			return fmt.Errorf("warm-up join: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	want := hashOracle(r.Tuples, s.Tuples)
	tuples := nR + nS
	join := func(sp spanRef) error {
		c := sp.child("Engine.Join")
		res, err := eng.Join(ctx, r, s)
		c.end()
		if err != nil {
			return err
		}
		return want.check("bulk-equi join", res)
	}

	if cfg.trace {
		tr := newTracer()
		if err := traceMain(ctx, cfg, rep, tr, eng, m0, join); err != nil {
			return err
		}
		if err := serveProbe(ctx, cfg, rep, tr); err != nil {
			return err
		}
		return finishTrace(ctx, cfg, rep, tr, layerInput{
			eng: eng, r: r, s: s, want: &want,
			planText: "ans(K, Sum) :- r(K, X), s(K, Y), agg sum(Y).",
			cat:      mpsm.MapCatalog{"r": r, "s": s, "t": s},
		})
	}

	lat, err := timedLoop(ctx, cfg.timed(), 3, rep, func() error { return join(spanRef{}) })
	if err != nil {
		return err
	}
	setClosedLoop(rep, setups, lat, tuples, 1)
	rep.note("query_p50_ms", "closed loop, one P-MPSM join of %d x %d tuples at a time, %d joins", nR, nS, len(lat))
	return setPeakRSS(rep)
}

// timedLoop runs op back to back until d has passed and at least minOps ran,
// recording each outcome, and returns the operations' wall times.
func timedLoop(ctx context.Context, d time.Duration, minOps int, rep *report, op func() error) ([]time.Duration, error) {
	var lat []time.Duration
	start := time.Now()
	for len(lat) < minOps || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		err := op()
		lat = append(lat, time.Since(t0))
		rep.outcome(err)
	}
	return lat, nil
}

// setClosedLoop sets the end-to-end metrics of a closed-loop workload whose
// operation scans tuples input tuples and answers queries queries.
func setClosedLoop(rep *report, setups []float64, lat []time.Duration, tuples, queries int) {
	latMs := durationsMs(lat)
	perTuple := make([]float64, len(lat))
	var busy time.Duration
	for i, d := range lat {
		perTuple[i] = float64(d) / float64(tuples)
		busy += d
	}
	setSetup(rep, setups)
	rep.set("ns_per_tuple", median(perTuple), "ns")
	rep.set("query_p50_ms", median(latMs), "ms")
	t := tailOf(latMs)
	rep.set("query_tail_ms", t.Value, "ms")
	rep.note("query_tail_ms", "%s", t)
	rep.set("sustained_qps", float64(queries*len(lat))/busy.Seconds(), "q/s")
	rep.note("sustained_qps", "closed loop, one client: %d queries in %v of operations", queries*len(lat), busy.Round(time.Millisecond))
}

func setPeakRSS(rep *report) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, "MiB")
	rep.note("peak_rss_mb", "benchmark process, which runs the engine")
	return nil
}
