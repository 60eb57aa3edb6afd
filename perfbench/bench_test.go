package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	mpsm "repro"
	"repro/internal/workload"
)

// fakeDaemonEnv makes the test binary act as a stand-in mpsmd: it serves
// /healthz, answers every POST with the status in the variable's value, and
// writes its pid to the file named by fakePidEnv.
const (
	fakeDaemonEnv = "PERFBENCH_FAKE_DAEMON_STATUS"
	fakePidEnv    = "PERFBENCH_FAKE_DAEMON_PID"
)

func TestMain(m *testing.M) {
	if status := os.Getenv(fakeDaemonEnv); status != "" {
		os.Exit(fakeDaemon(status))
	}
	code := m.Run()
	if mpsmdPath != "" {
		os.RemoveAll(filepath.Dir(mpsmdPath))
	}
	os.Exit(code)
}

func fakeDaemon(status string) int {
	code, _ := strconv.Atoi(status)
	addr := ""
	for i, a := range os.Args {
		if a == "-addr" && i+1 < len(os.Args) {
			addr = os.Args[i+1]
		}
	}
	if err := os.WriteFile(os.Getenv(fakePidEnv), []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
		return 3
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("POST /", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(code) })
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() { _ = srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	_ = srv.Close()
	return 0
}

// mpsmdPath is cmd/mpsmd built once per test run, in a directory TestMain
// removes.
var mpsmdPath string

func mpsmdBinary(t *testing.T) string {
	t.Helper()
	if mpsmdPath != "" {
		return mpsmdPath
	}
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "mpsmd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/mpsmd").CombinedOutput(); err != nil {
		t.Fatalf("building mpsmd: %v\n%s", err, out)
	}
	mpsmdPath = bin
	return bin
}

func benchNames(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(b[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}

// TestWorkloadsTiny runs every workload end to end at tiny size, untraced and
// traced, and checks that each prints every metric BENCHMARK.json declares,
// correct, as the last line of its output.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mpsmd and runs every workload")
	}
	bin := mpsmdBinary(t)
	shifts := map[string]int{"bulk-equi": 10, "skew-plans": 8, "serve-mix": 6}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.3", "--trace", trace,
					"-size-shift", strconv.Itoa(shifts[w.name]), "-mpsmd", bin, "-out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("result not correct: %+v", out)
				}
				key := map[string]string{"0": "end_to_end", "1": "per_layer"}[trace]
				names := benchNames(t, key)
				if len(out.Metrics) != len(names) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(out.Metrics), len(names))
				}
				for _, name := range names {
					if _, ok := out.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
			})
		}
	}
}

// TestOracleRejectsCorrupted checks that each reference check fails on a
// result with one value changed.
func TestOracleRejectsCorrupted(t *testing.T) {
	r := mpsm.GenerateUniform("r", 1<<10, 1)
	s := mpsm.GenerateForeignKey("s", r, 1<<12, 2)
	res, err := mpsm.New(mpsm.WithWorkers(2)).Join(context.Background(), r, s)
	if err != nil {
		t.Fatal(err)
	}
	want := hashOracle(r.Tuples, s.Tuples)
	if err := want.check("join", res); err != nil {
		t.Fatalf("correct join rejected: %v", err)
	}
	if want != kindOracle(mpsm.InnerJoin, r.Tuples, s.Tuples) {
		t.Fatal("hash oracle and mergejoin.ReferenceJoinKind disagree")
	}
	bad := *res
	bad.Matches++
	if err := want.check("join", &bad); !errors.Is(err, errMismatch) {
		t.Errorf("corrupted match count accepted: %v", err)
	}
	bad = *res
	bad.MaxSum--
	if err := want.check("join", &bad); !errors.Is(err, errMismatch) {
		t.Errorf("corrupted max sum accepted: %v", err)
	}

	rows := groupSum(nil, [][]mpsm.Tuple{r.Tuples}, s.Tuples)
	if err := checkRows("q", rows, len(rows), rows, 0); err != nil {
		t.Fatalf("correct rows rejected: %v", err)
	}
	for name, corrupt := range map[string]func([]mpsm.Tuple) ([]mpsm.Tuple, int){
		"payload": func(g []mpsm.Tuple) ([]mpsm.Tuple, int) { g[3].Payload++; return g, len(g) },
		"missing": func(g []mpsm.Tuple) ([]mpsm.Tuple, int) { return g[1:], len(g) - 1 },
		"repeat":  func(g []mpsm.Tuple) ([]mpsm.Tuple, int) { g[1] = g[0]; return g, len(g) },
		"count":   func(g []mpsm.Tuple) ([]mpsm.Tuple, int) { return g, len(g) + 1 },
	} {
		got, n := corrupt(append([]mpsm.Tuple(nil), rows...))
		if err := checkRows("q", got, n, rows, 0); !errors.Is(err, errMismatch) {
			t.Errorf("%s corruption accepted: %v", name, err)
		}
	}

	data := newServeData(3, 8)
	ref := newServeRef(data)
	q := request{Kind: opRepeat, C: repeatConsts[1]}
	canon, err := ref.canonical(q.text())
	if err != nil {
		t.Fatal(err)
	}
	want2 := ref.twoWay(q.C)
	good := response{Status: http.StatusOK, Query: canon, Rows: len(want2), Tuples: want2[:min(queryLimit, len(want2))]}
	if err := ref.check(q, good); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	wrongText := good
	wrongText.Query = canon + " "
	if err := ref.check(q, wrongText); !errors.Is(err, errMismatch) {
		t.Errorf("wrong canonical text accepted: %v", err)
	}
	wrongRow := good
	wrongRow.Tuples = append([]mpsm.Tuple(nil), good.Tuples...)
	wrongRow.Tuples[0].Payload ^= 1
	if err := ref.check(q, wrongRow); !errors.Is(err, errMismatch) {
		t.Errorf("wrong row accepted: %v", err)
	}
	three := request{Kind: opThreeWay}
	canon3, _ := ref.canonical(three.text())
	v1 := ref.threeWay(1)
	racing := response{Status: http.StatusOK, Query: canon3, Rows: len(v1), Tuples: v1[:min(queryLimit, len(v1))], VerLo: 0, VerHi: 1}
	if err := ref.check(three, racing); err != nil {
		t.Errorf("3-way result of a version it may have seen rejected: %v", err)
	}
	racing.VerHi = 0
	if err := ref.check(three, racing); !errors.Is(err, errMismatch) {
		t.Errorf("3-way result of a version it cannot have seen accepted: %v", err)
	}
}

// TestOpenLoopChargesStall checks that a stall delays the requests queued
// behind it and that their latency counts from when they were due, while the
// generator itself stays on schedule.
func TestOpenLoopChargesStall(t *testing.T) {
	const gap, stall = 10 * time.Millisecond, 200 * time.Millisecond
	var arr []arrival
	for i := range 30 {
		arr = append(arr, arrival{Due: time.Duration(i) * gap, Req: request{ID: i}})
	}
	send := func(_ context.Context, q request) response {
		if q.ID == 5 {
			time.Sleep(stall)
		} else {
			time.Sleep(time.Millisecond)
		}
		return response{Status: http.StatusOK}
	}
	got, _ := openLoop(context.Background(), arr, 1, send)
	// Request 6 was due 10ms after request 5 started its 200ms stall.
	if l := got[6].Latency; l < stall-2*gap {
		t.Errorf("request after the stall: latency %v, want >= %v", l, stall-2*gap)
	}
	// Request 20 was due 150ms after request 5; it still waits.
	if l := got[20].Latency; l < stall-16*gap {
		t.Errorf("request 20: latency %v, want the stall's remainder", l)
	}
	if l := got[29].Latency; l > stall {
		t.Errorf("request 29 (after the backlog drained): latency %v", l)
	}
	for i, s := range got {
		if s.Late > 50*time.Millisecond {
			t.Errorf("generator ran %v late on request %d", s.Late, i)
		}
	}
}

// TestDaemonAlwaysStopped checks that the spawned server process is gone
// after a normal stop and after a set-up that fails once the process runs.
func TestDaemonAlwaysStopped(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pidFile := filepath.Join(t.TempDir(), "pid")
	t.Setenv(fakePidEnv, pidFile)
	gone := func(t *testing.T) {
		t.Helper()
		data, err := os.ReadFile(pidFile)
		if err != nil {
			t.Fatal(err)
		}
		pid, _ := strconv.Atoi(string(data))
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("server process %d still exists (kill 0: %v)", pid, err)
		}
	}

	t.Run("success", func(t *testing.T) {
		t.Setenv(fakeDaemonEnv, "201")
		d, err := startDaemon(context.Background(), exe)
		if err != nil {
			t.Fatal(err)
		}
		d.stop()
		d.stop() // idempotent
		gone(t)
	})
	t.Run("failed set-up", func(t *testing.T) {
		t.Setenv(fakeDaemonEnv, "500")
		cfg := config{mpsmd: exe, seed: 1, shift: 8}
		if _, _, err := setupServe(context.Background(), cfg, newServeData(1, 8)); err == nil {
			t.Fatal("set-up against a failing server succeeded")
		}
		gone(t)
	})
	t.Run("failed run", func(t *testing.T) {
		t.Setenv(fakeDaemonEnv, "500")
		cfg := config{workload: "serve-mix", mpsmd: exe, seed: 1, shift: 8, seconds: 0.2}
		if err := runServe(context.Background(), cfg, newReport(cfg)); err == nil {
			t.Fatal("run against a failing server succeeded")
		}
		gone(t)
	})
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestTailOf checks the tail rule: the highest grid percentile with at least
// ten samples beyond it, or the maximum when there are too few samples.
func TestTailOf(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if tl := tailOf(xs); tl.Percentile != 99 || tl.Value != 990 || tl.Beyond != 10 {
		t.Errorf("1000 samples: %+v", tl)
	}
	if tl := tailOf(xs[:500]); tl.Percentile != 95 || tl.Value != 475 || tl.Beyond != 25 {
		t.Errorf("500 samples: %+v", tl)
	}
	if tl := tailOf(xs[:5]); tl.Percentile != 100 || tl.Value != 5 || tl.Beyond != 0 {
		t.Errorf("5 samples: %+v", tl)
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children, overlapping ones counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},
		{ID: 4, Parent: 3, Name: "b", Start: 30, End: 35},
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	if s := got["op"].SelfMs * 1e6; s != 50 {
		t.Errorf("op self %v ns, want 50", s)
	}
	if s := got["a"].SelfMs * 1e6; s != 55 {
		t.Errorf("a self %v ns, want 55", s)
	}
}

// TestCompareVerdicts checks the compare mode's classification.
func TestCompareVerdicts(t *testing.T) {
	m := benchMetric{Name: "x", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{[]float64{101, 100, 102, 101, 100}, "within bound"},
		{[]float64{130, 131, 129, 130, 130}, "BEYOND bound: worse"},
		{[]float64{70, 71, 69, 70, 70}, "beyond bound: better"},
		{[]float64{60, 140, 100, 80, 120}, "unresolved"},
		{[]float64{50, 90, 70, 60, 80}, "better (every run)"},
	} {
		if got := verdict(steady, c.change, m); got != c.want {
			t.Errorf("verdict(%v) = %q, want %q", c.change, got, c.want)
		}
	}
}

// TestPoissonScheduleSeeded checks that the schedule depends only on the seed
// and that its mean rate is close to the one asked for.
func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(workload.NewRNG(5), 200, 10*time.Second, pickMix)
	b := poissonSchedule(workload.NewRNG(5), 200, 10*time.Second, pickMix)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed gave different schedules")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 10s at 200/s", n)
	}
	writes := 0
	for _, x := range a {
		if x.Req.Kind == opWrite {
			writes++
		}
	}
	if w := writes; w < 20 || w > 70 {
		t.Errorf("%d writes in %d requests, want about 2%%", w, len(a))
	}
}
