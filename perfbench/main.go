// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one named workload against the public entry points (Engine.Join,
// Engine.Query/RunPlan, and an mpsmd process it starts and drives over HTTP),
// checks every result against a reference computed outside the timed region,
// and prints its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds this command
// and mpsmd first:
//
//	bash perfbench/run.sh --workload bulk-equi --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare PARENT_RESULTS CHANGE_RESULTS
//
// See perfbench/README.md for the workloads, the metrics and how each layer
// metric maps onto an end-to-end metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workers is the degree of parallelism of every engine and of mpsmd. The
// benchmark is sized for a 2-core machine; the value is fixed rather than
// taken from the CPU count so that results stay comparable between runs.
const workers = 2

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// shift divides every input size by 2^shift; tests use it to run the
	// workloads at tiny size. Benchmark runs leave it at 0.
	shift  int
	mpsmd  string
	outDir string
}

// setupReps is how many times a run sets up its workload; setup_s is the
// median. Traced runs do not report setup_s and set up once.
func (c config) setupReps() int {
	if c.trace {
		return 1
	}
	return 3
}

func (c config) timed() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// workloadSpec is one named set of inputs and operations.
type workloadSpec struct {
	name string
	why  string
	run  func(ctx context.Context, cfg config, rep *report) error
}

var workloads = []workloadSpec{
	{"bulk-equi", "one P-MPSM join over 2^22 x 2^24 foreign-key tuples; run generation, partitioning and merge join dominate", runBulk},
	{"skew-plans", "auto-planned skewed, clustered, band, semi/anti joins and a 3-way query over 2^20 rows; planner, splitters and row kernels", runSkew},
	{"serve-mix", "open-loop HTTP query/join/write mix against mpsmd over cached relations; HTTP, compile, plan cache and admission", runServe},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// meta describes the machine and settings a run was made with.
type meta struct {
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	Workers    int     `json:"workers"`
	// OfferedQPS is the fixed open-loop rate of serve-mix (0 elsewhere).
	OfferedQPS float64 `json:"offered_qps,omitempty"`
	Shift      int     `json:"size_shift,omitempty"`
	// StealPct is the share of CPU time the hypervisor gave to other guests
	// while the run executed (Linux /proc/stat), -1 where unavailable. A
	// high value marks a run disturbed from outside.
	StealPct float64 `json:"steal_pct"`
}

// report collects a run's metrics, the facts needed to read them, and the
// outcome of every checked operation.
type report struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Meta      meta              `json:"meta"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes gives each ratio its base and each tail its percentile and
	// sample count, keyed by metric name.
	Notes      map[string]string `json:"notes"`
	Mismatches []string          `json:"mismatches,omitempty"`
	SelfTimes  []selfTime        `json:"self_times,omitempty"`
}

func newReport(cfg config) *report {
	return &report{
		Workload: cfg.workload,
		Trace:    cfg.trace,
		Meta:     newMeta(cfg),
		Metrics:  map[string]metric{},
		Notes:    map[string]string{},
	}
}

func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(name, format string, args ...any) {
	r.Notes[name] = fmt.Sprintf(format, args...)
}

// maxMismatches bounds how many failure descriptions a report keeps.
const maxMismatches = 20

// outcome records one attempted operation: err is its error or the
// difference between its result and the reference.
func (r *report) outcome(err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.Mismatches) < maxMismatches {
		r.Mismatches = append(r.Mismatches, err.Error())
	}
}

func (r *report) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

func (r *report) failedRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	fl.StringVar(&cfg.workload, "workload", "", "workload name: bulk-equi, skew-plans, serve-mix")
	fl.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "measured time of one run")
	traceFlag := fl.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fl.IntVar(&cfg.shift, "size-shift", 0, "divide input sizes by 2^n (tests only)")
	fl.StringVar(&cfg.mpsmd, "mpsmd", "", "path of the mpsmd binary serve-mix starts")
	fl.StringVar(&cfg.outDir, "out", ".bench_build/results", "directory for result and trace files")
	calibrate := fl.Bool("calibrate", false, "serve-mix: measure the mix's closed-loop capacity and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	var w *workloadSpec
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *calibrate {
		if err := calibrateServe(ctx, cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	rep := newReport(cfg)
	steal0, total0 := cpuSteal()
	if err := w.run(ctx, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.Meta.StealPct = -1
	if steal1, total1 := cpuSteal(); total1 > total0 {
		rep.Meta.StealPct = float64(steal1-steal0) / float64(total1-total0) * 100
	}
	if err := writeReport(cfg, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, rep)
	if !rep.correct() {
		for _, m := range rep.Mismatches {
			fmt.Fprintln(stderr, "perfbench: FAILED:", m)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// resultPath names a run's file in dir.
func resultPath(cfg config, kind, ext string) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-%s-seed%d-trace%d.%s", kind, cfg.workload, cfg.seed, boolInt(cfg.trace), ext))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeReport(cfg config, rep *report) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(cfg, "result", "json"), data, 0o644)
}

// printReport prints the human-readable lines and, last, the one-line JSON
// result.
func printReport(w io.Writer, rep *report) {
	m := rep.Meta
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d workers=%d go=%s rev=%s cpu=%q",
		rep.Workload, m.Seed, m.Seconds, rep.Trace, m.NProc, m.GOMAXPROCS, m.Workers, m.GoVersion, m.Revision, m.CPU)
	if m.OfferedQPS > 0 {
		fmt.Fprintf(w, " offered_qps=%g", m.OfferedQPS)
	}
	fmt.Fprintf(w, " steal_pct=%.1f", m.StealPct)
	fmt.Fprintln(w)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rep.Metrics[name]
		line := fmt.Sprintf("%-34s %14.6g %s", name, v.Value, v.Unit)
		if n, ok := rep.Notes[name]; ok {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-34s %14.6g ratio  (%d failed of %d attempted)\n", "failed_ratio", rep.failedRatio(), rep.Failed, rep.Attempted)
	if len(rep.SelfTimes) > 0 {
		fmt.Fprintln(w, "# span self times (ms): name count total self")
		for _, st := range rep.SelfTimes {
			fmt.Fprintf(w, "#   %-40s %6d %12.3f %12.3f\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
		}
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Fprintln(w, string(out))
}

func newMeta(cfg config) meta {
	return meta{
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
		Workers:    workers,
		Shift:      cfg.shift,
	}
}

// cpuSteal returns the machine's cumulative stolen and total CPU time in
// clock ticks, or zeros where /proc/stat is unavailable.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision identifies the code under test: the git revision when the build
// recorded one, otherwise a digest of the root module's Go sources (a plain
// source checkout has no git metadata).
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return "git:" + s.Value
			}
		}
	}
	d, err := sourceDigest(".")
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + d
}

// sourceDigest hashes go.mod and every .go file of the module rooted at root,
// skipping hidden directories and nested modules (this benchmark among them).
func sourceDigest(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", err
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// subSeed derives an independent stream seed from the run seed, so that the
// relations of one workload do not share generator state.
func subSeed(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// errMismatch marks a result that differs from its reference.
var errMismatch = errors.New("result differs from reference")
