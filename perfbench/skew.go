package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	mpsm "repro"
	"repro/internal/workload"
)

// skew-plans sizes: every relation has 2^20 rows; the negatively correlated
// pair draws keys from a domain of 4 x 2^20 so the skewed halves overlap.
const (
	skewBits = 20
	skewBand = 2
)

// skewData holds the skew-plans relations.
type skewData struct {
	// negR is 80:20 skewed towards high keys, negS towards low keys
	// (negatively correlated skew).
	negR, negS *mpsm.Relation
	// fkS references fkR and is clustered by key across worker chunks
	// (location skew); fkT references fkR too and joins in the 3-way query.
	fkR, fkS, fkT *mpsm.Relation
}

func newSkewData(seed uint64, shift int) *skewData {
	n := 1 << (skewBits - shift)
	domain := uint64(n) * 4
	d := &skewData{
		negR: mpsm.GenerateSkewedWithDomain("R", n, domain, mpsm.SkewHigh80, subSeed(seed, 11)),
		negS: mpsm.GenerateSkewedWithDomain("S", n, domain, mpsm.SkewLow80, subSeed(seed, 12)),
		fkR:  mpsm.GenerateUniform("r", n, subSeed(seed, 13)),
	}
	d.fkS = mpsm.GenerateForeignKey("s", d.fkR, n, subSeed(seed, 14))
	workload.ApplyLocationSkew(d.fkS, workers, workload.LocationClustered, workload.DefaultKeyDomain)
	d.fkT = mpsm.GenerateForeignKey("t", d.fkR, n, subSeed(seed, 15))
	return d
}

func (d *skewData) catalog() mpsm.MapCatalog {
	return mpsm.MapCatalog{"r": d.fkR, "s": d.fkS, "t": d.fkT}
}

// skewJoin is one pair join of the pass.
type skewJoin struct {
	name string
	r, s *mpsm.Relation
	kind mpsm.JoinKind
	band uint64
}

func (j skewJoin) opts() []mpsm.Option {
	if j.band > 0 {
		return []mpsm.Option{mpsm.WithBandWidth(j.band)}
	}
	return []mpsm.Option{mpsm.WithKind(j.kind)}
}

// want is the join's reference answer, from the test oracles of
// internal/mergejoin.
func (j skewJoin) want() joinSummary {
	if j.band > 0 {
		return bandOracle(j.r.Tuples, j.s.Tuples, j.band)
	}
	return kindOracle(j.kind, j.r.Tuples, j.s.Tuples)
}

// joins lists the pass's pair joins: equi-joins under negatively correlated
// and location skew, a band join, and semi and anti joins.
func (d *skewData) joins() []skewJoin {
	return []skewJoin{
		{"negcorr equi", d.negR, d.negS, mpsm.InnerJoin, 0},
		{"clustered fk equi", d.fkR, d.fkS, mpsm.InnerJoin, 0},
		{"negcorr band", d.negR, d.negS, mpsm.InnerJoin, skewBand},
		{"negcorr semi", d.negR, d.negS, mpsm.SemiJoin, 0},
		{"negcorr anti", d.negR, d.negS, mpsm.AntiJoin, 0},
	}
}

// skewRefs are the pass's reference answers, computed once per run outside
// the timed region.
type skewRefs struct {
	joins []joinSummary
	three []mpsm.Tuple
}

func newSkewRefs(d *skewData) *skewRefs {
	refs := &skewRefs{three: groupSum(nil, [][]mpsm.Tuple{d.fkR.Tuples, d.fkS.Tuples}, d.fkT.Tuples)}
	for _, j := range d.joins() {
		refs.joins = append(refs.joins, j.want())
	}
	return refs
}

// skewQueries is the number of queries in one pass.
const skewQueries = 6

// skewPass runs the fixed pass once on an auto-planning engine; nil refs
// skips the checks (the warm-up pass of set-up).
func skewPass(ctx context.Context, eng *mpsm.Engine, d *skewData, refs *skewRefs, sp spanRef) error {
	var errs []error
	for i, j := range d.joins() {
		c := sp.child("Engine.Join " + j.name)
		res, err := eng.Join(ctx, j.r, j.s, j.opts()...)
		c.end()
		if err == nil && refs != nil {
			err = refs.joins[i].check(j.name, res)
		}
		errs = append(errs, err)
	}
	c := sp.child("Engine.Query 3-way")
	res, err := eng.Query(ctx, threeWayText, d.catalog())
	c.end()
	if err == nil && refs != nil {
		err = checkRows("3-way query", res.Output.Tuples, res.Output.Len(), refs.three, 0)
	}
	return errors.Join(append(errs, err)...)
}

// runSkew is the skew-plans workload: the fixed auto-planned pass, closed
// loop.
func runSkew(ctx context.Context, cfg config, rep *report) error {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var d *skewData
	var eng *mpsm.Engine
	var setups []float64
	for range cfg.setupReps() {
		d, eng = nil, nil
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		d = newSkewData(cfg.seed, cfg.shift)
		eng = mpsm.New(mpsm.WithWorkers(workers), mpsm.WithScratchPool(true), mpsm.WithAutoPlan(true))
		if err := skewPass(ctx, eng, d, nil, spanRef{}); err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	refs := newSkewRefs(d)
	n := d.negR.Len()
	tuples := 10*n + 3*n // five pair joins and one three-way query
	pass := func(sp spanRef) error { return skewPass(ctx, eng, d, refs, sp) }

	if cfg.trace {
		tr := newTracer()
		if err := traceMain(ctx, cfg, rep, tr, eng, m0, pass); err != nil {
			return err
		}
		if err := serveProbe(ctx, cfg, rep, tr); err != nil {
			return err
		}
		want := refs.joins[0]
		return finishTrace(ctx, cfg, rep, tr, layerInput{
			eng: eng, r: d.negR, s: d.negS, want: &want,
			planText: threeWayText, cat: d.catalog(),
		})
	}

	lat, err := timedLoop(ctx, cfg.timed(), 3, rep, func() error { return pass(spanRef{}) })
	if err != nil {
		return err
	}
	setClosedLoop(rep, setups, lat, tuples, skewQueries)
	rep.note("query_p50_ms", "closed loop, one pass of %d auto-planned queries over %d-row inputs at a time, %d passes", skewQueries, n, len(lat))
	return setPeakRSS(rep)
}
