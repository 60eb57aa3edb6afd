package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchMetric is an end-to-end metric as BENCHMARK.json declares it.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchMetrics(path string) ([]benchMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []benchMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// runSet maps workload → seed → untraced report.
type runSet map[string]map[uint64]*report

// loadRuns reads every untraced result file in dir.
func loadRuns(dir string) (runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result-*-trace0.json files in %s", dir)
	}
	set := runSet{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		if set[rep.Workload] == nil {
			set[rep.Workload] = map[uint64]*report{}
		}
		set[rep.Workload][rep.Meta.Seed] = &rep
	}
	return set, nil
}

// verdict classifies a change's median against the parent's under a bound.
// Where either side's quartile spread exceeds the bound the difference is
// unresolved, unless every change run is better than every parent run.
func verdict(parent, change []float64, m benchMetric) string {
	pm, cm := median(parent), median(change)
	worse := (cm - pm) / pm // share by which the change is worse
	if m.Better == "higher" {
		worse = (pm - cm) / pm
	}
	if spread(parent) > m.Bound || spread(change) > m.Bound {
		if allBetter(parent, change, m.Better) {
			return "better (every run)"
		}
		return "unresolved"
	}
	switch {
	case worse > m.Bound:
		return "BEYOND bound: worse"
	case worse < -m.Bound:
		return "beyond bound: better"
	}
	return "within bound"
}

func allBetter(parent, change []float64, better string) bool {
	for _, p := range parent {
		for _, c := range change {
			if !isBetter(c, p, better) {
				return false
			}
		}
	}
	return true
}

func isBetter(c, p float64, better string) bool {
	if better == "higher" {
		return c > p
	}
	return c < p
}

// compareMain prints, for each workload and end-to-end metric, both sides'
// medians and quartiles, the change's wins over runs paired by seed, and the
// verdict against the metric's bound. It exits 1 when a metric is worse
// beyond its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	fl.SetOutput(stderr)
	benchPath := fl.String("bench", "BENCHMARK.json", "BENCHMARK.json with the metrics' bounds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] PARENT_RESULTS_DIR CHANGE_RESULTS_DIR")
		return 2
	}
	metrics, err := readBenchMetrics(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	parent, err := loadRuns(fl.Arg(0))
	if err == nil {
		var change runSet
		if change, err = loadRuns(fl.Arg(1)); err == nil {
			return printComparison(stdout, metrics, parent, change)
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return 2
}

func printComparison(w io.Writer, metrics []benchMetric, parent, change runSet) int {
	var names []string
	for name := range parent {
		if change[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	status := 0
	fmt.Fprintf(w, "%-11s %-14s %-5s %26s %26s %8s %6s  %s\n", "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	for _, name := range names {
		for _, m := range metrics {
			var pv, cv []float64
			wins, pairs := 0, 0
			for seed, pr := range parent[name] {
				p, ok := pr.Metrics[m.Name]
				if !ok {
					continue
				}
				pv = append(pv, p.Value)
				if cr, ok := change[name][seed]; ok {
					if c, ok := cr.Metrics[m.Name]; ok {
						pairs++
						if isBetter(c.Value, p.Value, m.Better) {
							wins++
						}
					}
				}
			}
			for _, cr := range change[name] {
				if c, ok := cr.Metrics[m.Name]; ok {
					cv = append(cv, c.Value)
				}
			}
			if len(pv) < 2 || len(cv) < 2 {
				fmt.Fprintf(w, "%-11s %-14s %-5s too few runs (%d parent, %d change)\n", name, m.Name, m.Unit, len(pv), len(cv))
				continue
			}
			v := verdict(pv, cv, m)
			if strings.HasPrefix(v, "BEYOND") {
				status = 1
			}
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-11s %-14s %-5s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.1f%% %2d/%-3d  %s (bound %g)\n",
				name, m.Name, m.Unit, median(pv), pq1, pq3, median(cv), cq1, cq3,
				(median(cv)-median(pv))/median(pv)*100, wins, pairs, v, m.Bound)
		}
	}
	return status
}
