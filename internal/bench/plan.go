package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	mpsm "repro"
)

func init() {
	register(Experiment{
		Name:  "plan",
		Title: "Operator plans: streaming merge aggregation vs materialize + sort aggregation over the MPSM join",
		Run:   runPlanExperiment,
		JSON:  planJSON,
	})
}

// planRepetitions is how often each aggregation strategy runs; the report
// keeps the best time, following the paper's warm-repetition methodology.
const planRepetitions = 3

// PlanAggRun is one aggregation strategy's measurement.
type PlanAggRun struct {
	Strategy        string  `json:"strategy"`
	Millis          float64 `json:"millis"`
	Groups          int     `json:"groups"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
}

// PlanReport is the machine-readable report of the plan experiment
// (BENCH_plan.json): a GroupAggregate above a P-MPSM join executed once as
// the fused streaming merge aggregation over the join's key-ordered output,
// and once as materialize-the-projection-then-sort-aggregate. Speedup > 1
// means streaming wins.
type PlanReport struct {
	GeneratedAt string       `json:"generated_at"`
	RSize       int          `json:"r_size"`
	SSize       int          `json:"s_size"`
	Workers     int          `json:"workers"`
	Runs        []PlanAggRun `json:"runs"`
	Speedup     float64      `json:"speedup"`
}

// planAggPlan builds the measured plan: GroupAggregate(SUM) directly above
// the join for the streaming strategy, or above an explicit projection (which
// materializes the join output first, forcing the sort path) otherwise.
func planAggPlan(r, s *mpsm.Relation, streaming bool) *mpsm.Plan {
	p := mpsm.NewPlan()
	j := p.Join(p.Scan(r), p.Scan(s))
	in := j
	if !streaming {
		in = p.Project(j, func(rt, st mpsm.Tuple) mpsm.Tuple {
			return mpsm.Tuple{Key: rt.Key, Payload: rt.Payload + st.Payload}
		})
	}
	p.GroupAggregate(in, mpsm.AggSum)
	return p
}

// measurePlanAgg runs one strategy and reports its best time and per-op
// allocation.
func measurePlanAgg(engine *mpsm.Engine, r, s *mpsm.Relation, streaming bool) (PlanAggRun, error) {
	plan := planAggPlan(r, s, streaming)
	strategy := "materialize+sort"
	if streaming {
		strategy = "streaming merge"
	}
	run := PlanAggRun{Strategy: strategy}
	ctx := context.Background()

	// One warm-up execution populates the scratch pool.
	res, err := engine.RunPlan(ctx, plan)
	if err != nil {
		return run, err
	}
	run.Groups = res.Output.Len()

	best := time.Duration(0)
	var bytes uint64
	for i := 0; i < planRepetitions; i++ {
		before := heapAllocBytes()
		res, err := engine.RunPlan(ctx, plan)
		if err != nil {
			return run, err
		}
		bytes = heapAllocBytes() - before
		if res.Output.Len() != run.Groups {
			return run, fmt.Errorf("plan: group count changed between runs: %d vs %d", res.Output.Len(), run.Groups)
		}
		if best == 0 || res.Total < best {
			best = res.Total
		}
	}
	run.Millis = millis(best)
	run.AllocBytesPerOp = float64(bytes)
	return run, nil
}

// buildPlanReport measures both strategies on one pooled engine.
func buildPlanReport(cfg Config) (*PlanReport, error) {
	r, s, err := makeUniformDataset(cfg, 4, 2900)
	if err != nil {
		return nil, err
	}
	engine := mpsm.New(mpsm.WithWorkers(cfg.workers()), mpsm.WithScratchPool(true))
	rep := &PlanReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		RSize:       r.Len(),
		SSize:       s.Len(),
		Workers:     cfg.workers(),
	}
	for _, streaming := range []bool{false, true} {
		run, err := measurePlanAgg(engine, r, s, streaming)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, run)
	}
	materialized, streamed := rep.Runs[0], rep.Runs[1]
	if materialized.Groups != streamed.Groups {
		return nil, fmt.Errorf("plan: strategies disagree on the group count: %d vs %d",
			materialized.Groups, streamed.Groups)
	}
	if streamed.Millis > 0 {
		rep.Speedup = materialized.Millis / streamed.Millis
	}
	return rep, nil
}

// runPlanExperiment renders the strategy comparison as a table.
func runPlanExperiment(cfg Config, w io.Writer) error {
	rep, err := buildPlanReport(cfg)
	if err != nil {
		return err
	}
	tbl := newTable(w)
	tbl.row("aggregation", "total [ms]", "groups", "alloc [KiB/op]")
	for _, run := range rep.Runs {
		tbl.row(run.Strategy,
			fmt.Sprintf("%.2f", run.Millis),
			run.Groups,
			fmt.Sprintf("%.1f", run.AllocBytesPerOp/1024))
	}
	tbl.flush()
	fmt.Fprintf(w, "\nstreaming merge aggregation is %.2fx the speed of materialize+sort (GROUP BY over %d keys, |R|=%d, |S|=%d)\n",
		rep.Speedup, rep.Runs[0].Groups, rep.RSize, rep.SSize)
	if cfg.Verbose {
		fmt.Fprintln(w, "expected shape: streaming wins by skipping the intermediate materialization and its sort; both strategies draw their working memory from the scratch pool, so allocations stay flat in the group count")
	}
	return nil
}

// planJSON produces the machine-readable plan report.
func planJSON(cfg Config) (any, error) {
	return buildPlanReport(cfg)
}

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
