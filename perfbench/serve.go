package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	mpsm "repro"
	"repro/internal/workload"
)

// serve-mix sizes: r = 2^14 and s = t = 2^16 tuples fit in cache, so HTTP,
// compilation, the plan cache and admission dominate rather than sorting.
const (
	serveRBits = 14
	serveSBits = 16
	// tVersions is how many versions of t writes cycle through; each write
	// installs a different one, so every write changes t's fingerprint.
	tVersions = 4
	// conns bounds the HTTP connections the benchmark opens to mpsmd.
	conns = 2
	// queryLimit bounds the rows a /v1/query response carries.
	queryLimit = 100
)

// serveRate is the fixed offered rate of the serve-mix run, in requests per
// second: about half of the mix's closed-loop capacity over 2 connections
// (252 q/s with -calibrate on a 2-core Intel Xeon container, see README.md).
// It is a constant so that every run and every commit offers the same load.
const serveRate = 125

// latencyLimitMs is the tail latency sustained_qps must stay under.
const latencyLimitMs = 250

// searchTrial is the length of one rate-search trial, and searchStep the
// ratio between successive trial rates: finer than sustained_qps's bound.
const (
	searchTrial = 2 * time.Second
	searchStep  = 1.12
	// maxTrials bounds the climb: 125 q/s x 1.12^11 is about 1.7x the
	// closed-loop capacity.
	maxTrials = 12
)

// serveBlocks is how many blocks the fixed-rate window is cut into.
const serveBlocks = 5

// opKind is one request class of the mix.
type opKind int

const (
	opRepeat   opKind = iota // two-way aggregate query, one of a few repeated texts
	opFresh                  // two-way aggregate query with a fresh constant: plan-cache miss
	opJoin                   // auto-planned /v1/join r ⋈ s
	opThreeWay               // three-way aggregate query over r, s, t
	opWrite                  // regenerate t with the next version's seed
)

var opNames = [...]string{"query-repeat", "query-fresh", "join", "query-3way", "write"}

// repeatConsts are the filter constants of the repeated two-way texts.
var repeatConsts = [4]uint64{1 << 61, 3 << 61, 5 << 61, 7 << 61}

const threeWayText = "ans(K, Sum) :- r(K, X), s(K, Y), t(K, Z), agg sum(Z)."

func twoWayText(c uint64) string {
	return "ans(K, Sum) :- r(K, X), s(K, Y), X > " + strconv.FormatUint(c, 10) + ", agg sum(Y)."
}

// request is one operation of the mix.
type request struct {
	// ID is the request's index in its schedule.
	ID   int
	Kind opKind
	C    uint64 // filter constant of two-way queries
}

func (q request) text() string {
	if q.Kind == opThreeWay {
		return threeWayText
	}
	return twoWayText(q.C)
}

// pickMix draws a request: 60% repeated two-way queries, 10% fresh two-way
// queries, 20% joins, 8% three-way queries, 2% writes.
func pickMix(rng *workload.RNG) request {
	switch x := rng.Uint64n(100); {
	case x < 60:
		return request{Kind: opRepeat, C: repeatConsts[rng.Uint64n(uint64(len(repeatConsts)))]}
	case x < 70:
		return request{Kind: opFresh, C: rng.Next()}
	case x < 90:
		return request{Kind: opJoin}
	case x < 98:
		return request{Kind: opThreeWay}
	default:
		return request{Kind: opWrite}
	}
}

// response is what a request returned.
type response struct {
	Status int
	Err    string
	Bytes  int
	// RTT runs from sending the request to reading the whole response.
	RTT          time.Duration
	ServerMillis float64
	Query        string
	Rows         int
	Tuples       []mpsm.Tuple
	Matches      uint64
	MaxSum       uint64
	// VerLo..VerHi are the versions of t the request may have seen: writes
	// completed before it was sent up to writes begun before it returned.
	VerLo, VerHi int
}

// serveData is the serve-mix catalog: r, s and the versions of t.
type serveData struct {
	r, s *mpsm.Relation
	t    []*mpsm.Relation
	// tSeeds[v] generates t[v] as a foreign-key relation of r.
	tSeeds []uint64
}

func newServeData(seed uint64, shift int) *serveData {
	nR, nS := 1<<max(serveRBits-shift, 4), 1<<max(serveSBits-shift, 6)
	d := &serveData{r: mpsm.GenerateUniform("r", nR, subSeed(seed, 20))}
	d.s = mpsm.GenerateForeignKey("s", d.r, nS, subSeed(seed, 21))
	for v := range tVersions {
		d.tSeeds = append(d.tSeeds, subSeed(seed, 22+uint64(v)))
		d.t = append(d.t, mpsm.GenerateForeignKey("t", d.r, nS, d.tSeeds[v]))
	}
	return d
}

// writeBody asks mpsmd to regenerate t with version v's seed: a foreign-key
// relation of the registered r, which mpsm.GenerateForeignKey reproduces
// in-process as data.tAt(v).
func (d *serveData) writeBody(v int) []byte {
	b, _ := json.Marshal(map[string]any{"name": "t", "generate": map[string]any{
		"size": d.t[0].Len(), "seed": d.tSeeds[v%len(d.tSeeds)], "foreign_key_of": "r"}})
	return b
}

// tAt is the t that v completed writes leave registered.
func (d *serveData) tAt(v int) *mpsm.Relation { return d.t[v%len(d.t)] }

// tuplesOf is the number of input tuples a request scans (or, for a write,
// generates).
func (d *serveData) tuplesOf(q request) int {
	switch q.Kind {
	case opThreeWay:
		return d.r.Len() + d.s.Len() + d.t[0].Len()
	case opWrite:
		return d.t[0].Len()
	default:
		return d.r.Len() + d.s.Len()
	}
}

// registerBody encodes a POST /v1/relations body carrying the relation's
// tuples, so mpsmd receives the generated inputs rather than a seed.
func registerBody(name string, rel *mpsm.Relation) []byte {
	b := make([]byte, 0, 32+rel.Len()*44)
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"tuples":[`...)
	for i, t := range rel.Tuples {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendUint(b, t.Key, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, t.Payload, 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// daemon is a running mpsmd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	once   sync.Once
}

// startDaemon starts bin listening on a free loopback port and waits until
// /healthz answers. On any failure the process is stopped before returning.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	var lastErr error
	for range 3 { // a port picked free can be taken before mpsmd binds it
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stderr = os.Stderr
		// The kernel kills mpsmd if the benchmark dies without stopping it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status is read from cmd.ProcessState
			close(d.exited)
		}()
		if lastErr = d.waitHealthy(ctx, 30*time.Second); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("mpsmd exited during start-up: %v", d.cmd.ProcessState)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		resp, err := client.Get(d.base + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
	return errors.New("mpsmd did not become healthy in time")
}

// stop terminates mpsmd (SIGTERM, then SIGKILL after a grace period) and
// waits until it has exited. It is safe to call more than once.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	})
}

// peakRSSMiB is the stopped process's peak resident set size.
func (d *daemon) peakRSSMiB() float64 {
	if ps := d.cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			return float64(ru.Maxrss) / 1024
		}
	}
	return 0
}

// serveClient drives one mpsmd over at most conns connections.
type serveClient struct {
	base   string
	http   *http.Client
	data   *serveData
	writeM sync.Mutex // writes are serialized so versions apply in order
	// writesStarted and writesDone count t re-registrations sent and
	// acknowledged; version v of t is data.tAt(v).
	writesStarted, writesDone atomic.Int64
}

func newServeClient(base string, data *serveData) *serveClient {
	c := &serveClient{
		base: base,
		data: data,
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	return c
}

func (c *serveClient) close() { c.http.CloseIdleConnections() }

func (c *serveClient) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// register loads r, s and version 0 of t with their tuples.
func (c *serveClient) register(ctx context.Context) error {
	for _, b := range [][]byte{registerBody("r", c.data.r), registerBody("s", c.data.s), registerBody("t", c.data.t[0])} {
		status, body, err := c.post(ctx, "/v1/relations", b)
		if err != nil {
			return fmt.Errorf("registering relation: %w", err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("registering relation: status %d: %s", status, body)
		}
	}
	return nil
}

var joinBody = []byte(`{"r":"r","s":"s","label":"join"}`)

func queryBody(q request) []byte {
	b, _ := json.Marshal(map[string]any{"query": q.text(), "limit": queryLimit, "label": opNames[q.Kind]})
	return b
}

// send performs one request of the mix.
func (c *serveClient) send(ctx context.Context, q request) response {
	var res response
	path, body := "/v1/query", []byte(nil)
	version := int64(-1)
	switch q.Kind {
	case opWrite:
		c.writeM.Lock()
		defer c.writeM.Unlock()
		version = c.writesStarted.Add(1)
		path, body = "/v1/relations", c.data.writeBody(int(version))
	case opJoin:
		path, body = "/v1/join", joinBody
	default:
		body = queryBody(q)
	}
	res.VerLo = int(c.writesDone.Load())
	t0 := time.Now()
	status, data, err := c.post(ctx, path, body)
	res.RTT = time.Since(t0)
	res.VerHi = int(c.writesStarted.Load())
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Status, res.Bytes = status, len(data)
	var parsed struct {
		Query       string       `json:"query"`
		Rows        int          `json:"rows"`
		Tuples      []mpsm.Tuple `json:"tuples"`
		Matches     uint64       `json:"matches"`
		MaxSum      uint64       `json:"max_sum"`
		TotalMillis float64      `json:"total_millis"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		res.Err = "decoding response: " + err.Error()
		return res
	}
	res.Query, res.Rows, res.Tuples = parsed.Query, parsed.Rows, parsed.Tuples
	res.Matches, res.MaxSum, res.ServerMillis = parsed.Matches, parsed.MaxSum, parsed.TotalMillis
	if version >= 0 && status == http.StatusCreated {
		c.writesDone.Store(version)
	}
	return res
}

// svcStats is the part of /v1/stats the benchmark reads.
type svcStats struct {
	Admission struct{ Admitted, Queued uint64 }
	PlanCache struct{ Hits, Misses, Invalidations uint64 }
	Memory    struct{ Gets, Hits uint64 }
}

func (c *serveClient) stats(ctx context.Context) (svcStats, error) {
	var st svcStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return st, fmt.Errorf("reading /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// setupServe starts mpsmd, registers the catalog and sends one request of
// each read class (every repeated text) so that compilation, planning and
// the scratch pool are warm before timing.
func setupServe(ctx context.Context, cfg config, data *serveData) (*daemon, *serveClient, error) {
	d, err := startDaemon(ctx, cfg.mpsmd, "-workers", strconv.Itoa(workers))
	if err != nil {
		return nil, nil, err
	}
	c := newServeClient(d.base, data)
	warm := []request{{Kind: opJoin}, {Kind: opThreeWay}}
	for _, k := range repeatConsts {
		warm = append(warm, request{Kind: opRepeat, C: k})
	}
	err = c.register(ctx)
	for _, q := range warm {
		if err != nil {
			break
		}
		if res := c.send(ctx, q); res.Status != http.StatusOK {
			err = fmt.Errorf("warm-up %s: status %d %s", opNames[q.Kind], res.Status, res.Err)
		}
	}
	if err != nil {
		c.close()
		d.stop()
		return nil, nil, err
	}
	return d, c, nil
}

// serveRef computes the reference answer of every request in-process,
// outside the timed region, caching per text and version.
type serveRef struct {
	data  *serveData
	canon map[string]string
	two   map[uint64][]mpsm.Tuple
	three map[int][]mpsm.Tuple
	join  *joinSummary
}

func newServeRef(data *serveData) *serveRef {
	return &serveRef{data: data, canon: map[string]string{}, two: map[uint64][]mpsm.Tuple{}, three: map[int][]mpsm.Tuple{}}
}

// canonical is the canonical text an in-process compile gives the query.
func (f *serveRef) canonical(text string) (string, error) {
	if c, ok := f.canon[text]; ok {
		return c, nil
	}
	p, err := mpsm.Compile(text, mpsm.MapCatalog{"r": f.data.r, "s": f.data.s, "t": f.data.t[0]})
	if err != nil {
		return "", err
	}
	f.canon[text] = p.QueryInfo().Text
	return f.canon[text], nil
}

func (f *serveRef) twoWay(c uint64) []mpsm.Tuple {
	if rows, ok := f.two[c]; ok {
		return rows
	}
	rows := groupSum(func(t mpsm.Tuple) bool { return t.Payload > c }, [][]mpsm.Tuple{f.data.r.Tuples}, f.data.s.Tuples)
	f.two[c] = rows
	return rows
}

func (f *serveRef) threeWay(v int) []mpsm.Tuple {
	v %= len(f.data.t)
	if rows, ok := f.three[v]; ok {
		return rows
	}
	rows := groupSum(nil, [][]mpsm.Tuple{f.data.r.Tuples, f.data.s.Tuples}, f.data.t[v].Tuples)
	f.three[v] = rows
	return rows
}

func (f *serveRef) joinRS() joinSummary {
	if f.join == nil {
		j := hashOracle(f.data.r.Tuples, f.data.s.Tuples)
		f.join = &j
	}
	return *f.join
}

// check compares one HTTP response with the reference.
func (f *serveRef) check(q request, res response) error {
	what := opNames[q.Kind]
	if res.Err != "" {
		return fmt.Errorf("%s: %s", what, res.Err)
	}
	if q.Kind == opWrite {
		if res.Status != http.StatusCreated || res.Rows != f.data.t[0].Len() {
			return fmt.Errorf("%s: status %d, %d rows registered", what, res.Status, res.Rows)
		}
		return nil
	}
	if res.Status != http.StatusOK {
		return fmt.Errorf("%s: status %d", what, res.Status)
	}
	if q.Kind == opJoin {
		want := f.joinRS()
		if got := (joinSummary{res.Matches, res.MaxSum}); got != want {
			return fmt.Errorf("%s: %w: got %+v, want %+v", what, errMismatch, got, want)
		}
		return nil
	}
	canon, err := f.canonical(q.text())
	if err != nil {
		return fmt.Errorf("%s: compiling reference: %w", what, err)
	}
	if res.Query != canon {
		return fmt.Errorf("%s: %w: canonical text %q, want %q", what, errMismatch, res.Query, canon)
	}
	if q.Kind != opThreeWay {
		return checkRows(what, res.Tuples, res.Rows, f.twoWay(q.C), queryLimit)
	}
	// A three-way query racing a write may see either version of t.
	for v := res.VerLo; v <= res.VerHi; v++ {
		if err = checkRows(what, res.Tuples, res.Rows, f.threeWay(v), queryLimit); err == nil {
			return nil
		}
	}
	return err
}

// runServe is the serve-mix workload.
func runServe(ctx context.Context, cfg config, rep *report) error {
	if cfg.mpsmd == "" {
		return errors.New("serve-mix needs -mpsmd, the mpsmd binary to start")
	}
	data := newServeData(cfg.seed, cfg.shift)
	rep.Meta.OfferedQPS = serveRate
	var setups []float64
	var d *daemon
	var c *serveClient
	defer func() {
		if d != nil {
			c.close()
			d.stop()
		}
	}()
	for range cfg.setupReps() {
		if d != nil {
			c.close()
			d.stop()
			d = nil
		}
		t0 := time.Now()
		var err error
		if d, c, err = setupServe(ctx, cfg, data); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rng := workload.NewRNG(subSeed(cfg.seed, 30))
	ref := newServeRef(data)

	if cfg.trace {
		tr := newTracer()
		if err := serveLayers(ctx, cfg, rep, tr, c, rng, ref, true); err != nil {
			return err
		}
		c.close()
		d.stop()
		return finishTrace(ctx, cfg, rep, tr, layerInput{
			r: data.r, s: data.s, planText: twoWayText(repeatConsts[1]),
			cat: mpsm.MapCatalog{"r": data.r, "s": data.s, "t": data.t[0]},
		})
	}

	// The fixed-rate window runs as serveBlocks consecutive open-loop
	// blocks, and each latency metric is the median of the blocks' values:
	// a disturbance from outside the benchmark that lasts a few seconds then
	// moves one or two blocks, not the result.
	type block struct {
		arr     []arrival
		got     []sent
		backlog int
	}
	var blocks []block
	for range serveBlocks {
		arr := poissonSchedule(rng, serveRate, cfg.timed()/serveBlocks, pickMix)
		got, backlog := openLoop(ctx, arr, conns, c.send)
		blocks = append(blocks, block{arr, got, backlog})
	}
	qps, trials, err := sustainedSearch(ctx, cfg, c, rng, ref, rep)
	if err != nil {
		return err
	}
	c.close()
	d.stop()
	if err := ctx.Err(); err != nil {
		return err
	}

	var p50s, perTuples, tails []float64
	var tailNotes []string
	requests, backlog := 0, 0
	for _, b := range blocks {
		if len(b.got) == 0 {
			return errors.New("a block scheduled no requests")
		}
		var lat, perTuple []float64
		for i, s := range b.got {
			rep.outcome(ref.check(b.arr[i].Req, s.Res))
			lat = append(lat, ms(s.Latency))
			perTuple = append(perTuple, float64(s.Latency)/float64(data.tuplesOf(b.arr[i].Req)))
		}
		p50s = append(p50s, median(lat))
		perTuples = append(perTuples, median(perTuple))
		t := tailOf(lat)
		tails = append(tails, t.Value)
		tailNotes = append(tailNotes, t.String())
		requests += len(lat)
		backlog = max(backlog, b.backlog)
	}
	setSetup(rep, setups)
	rep.set("ns_per_tuple", median(perTuples), "ns")
	rep.set("query_p50_ms", median(p50s), "ms")
	rep.note("query_p50_ms", "median of %d blocks' medians %.4g; open loop, Poisson arrivals at %d q/s over %d connections, %d requests, at most %d queued at a block's end; timed from due",
		serveBlocks, p50s, serveRate, conns, requests, backlog)
	rep.set("query_tail_ms", median(tails), "ms")
	rep.note("query_tail_ms", "median of %d blocks' tails %.4g: %s", serveBlocks, tails, strings.Join(tailNotes, "; "))
	rep.set("sustained_qps", qps, "q/s")
	rep.note("sustained_qps", "rate where the monotone fit of trial latency crosses %d ms; %d trials of %v, step %.2fx (rate:tail/backlog/effective): %s",
		latencyLimitMs, len(trials), min(searchTrial, cfg.timed()), searchStep, trials)
	rep.set("peak_rss_mb", d.peakRSSMiB(), "MiB")
	rep.note("peak_rss_mb", "mpsmd process")
	return nil
}

// setSetup reports the median set-up time.
func setSetup(rep *report, setups []float64) {
	rep.set("setup_s", median(setups), "s")
	rep.note("setup_s", "median of %d set-ups: %.3g", len(setups), setups)
}

// trial is one step of the rate search.
type trial struct {
	Rate    float64
	TailMs  float64
	Backlog int
	// EffMs is the larger of the tail and the time the backlog left at
	// schedule end takes to drain at the offered rate: a trial meets the
	// limit when EffMs does, which covers both the tail limit and "no
	// growing backlog".
	EffMs float64
}

func (t trial) String() string {
	return fmt.Sprintf("%.1f:%.0fms/%d/%.0fms", t.Rate, t.TailMs, t.Backlog, t.EffMs)
}

// sustainedSearch finds the highest offered rate whose tail latency stays
// under latencyLimitMs with no growing backlog. It runs open-loop trials on a
// ladder of rates rising from serveRate by searchStep, until two trials in a
// row exceed twice the limit (or maxTrials), and below serveRate while even
// the lowest trial misses the limit. It fits a non-decreasing curve to
// the trials' log effective latency, so that one disturbed trial cannot end
// or move the search alone, and interpolates where the fit crosses the
// limit. Every response is checked.
func sustainedSearch(ctx context.Context, cfg config, c *serveClient, rng *workload.RNG, ref *serveRef, rep *report) (float64, []trial, error) {
	trialDur := min(searchTrial, cfg.timed())
	try := func(rate float64) trial {
		arr := poissonSchedule(rng, rate, trialDur, pickMix)
		got, backlog := openLoop(ctx, arr, conns, c.send)
		lat := make([]float64, len(got))
		for i, s := range got {
			err := ref.check(arr[i].Req, s.Res)
			rep.outcome(err)
			lat[i] = ms(s.Latency)
			if err != nil {
				lat[i] = math.Inf(1) // a failed request misses any limit
			}
		}
		t := tailOf(lat).Value
		return trial{rate, t, backlog, max(t, float64(backlog)/rate*1000)}
	}
	var trials []trial // in rising rate order
	for rate := float64(serveRate); len(trials) < maxTrials && ctx.Err() == nil; rate *= searchStep {
		trials = append(trials, try(rate))
		if n := len(trials); n >= 2 && trials[n-1].EffMs > 2*latencyLimitMs && trials[n-2].EffMs > 2*latencyLimitMs {
			break
		}
	}
	for rate := float64(serveRate) / searchStep; trials[0].EffMs > latencyLimitMs && rate >= 1 && ctx.Err() == nil; rate /= searchStep {
		trials = append([]trial{try(rate)}, trials...)
	}
	if err := ctx.Err(); err != nil {
		return 0, trials, err
	}
	logEff := make([]float64, len(trials))
	for i, t := range trials {
		logEff[i] = math.Log(t.EffMs)
	}
	fit := isotonic(logEff)
	limit := math.Log(latencyLimitMs)
	for k, f := range fit {
		if f <= limit {
			continue
		}
		if k == 0 {
			return 0, trials, fmt.Errorf("rate search: even %.1f q/s misses the %d ms limit", trials[0].Rate, latencyLimitMs)
		}
		lo, hi := trials[k-1].Rate, trials[k].Rate
		frac := 0.0
		if !math.IsInf(f, 1) {
			frac = (limit - fit[k-1]) / (f - fit[k-1])
		}
		return lo * math.Pow(hi/lo, frac), trials, nil
	}
	// No trial reached the limit: the highest rate tried is a lower bound.
	return trials[len(trials)-1].Rate, trials, nil
}

// isotonic is the non-decreasing least-squares fit to y (pool adjacent
// violators).
func isotonic(y []float64) []float64 {
	type pool struct {
		sum float64
		n   int
	}
	var st []pool
	for _, v := range y {
		st = append(st, pool{v, 1})
		for len(st) > 1 {
			a, b := st[len(st)-2], st[len(st)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			st = append(st[:len(st)-2], pool{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(y))
	for _, p := range st {
		for range p.n {
			out = append(out, p.sum/float64(p.n))
		}
	}
	return out
}

// calibrateServe measures the mix's closed-loop capacity over conns
// connections, from which serveRate is set.
func calibrateServe(ctx context.Context, cfg config, w io.Writer) error {
	data := newServeData(cfg.seed, cfg.shift)
	d, c, err := setupServe(ctx, cfg, data)
	if err != nil {
		return err
	}
	defer d.stop()
	defer c.close()
	rng := workload.NewRNG(subSeed(cfg.seed, 30))
	got := closedLoop(ctx, cfg.timed(), conns, func() request { return pickMix(rng) }, c.send)
	var all []float64
	for _, s := range got {
		all = append(all, ms(s.Latency))
	}
	fmt.Fprintf(w, "closed-loop capacity over %d connections: %.1f q/s (%d requests in %v); p50 %.2f ms\n",
		conns, float64(len(got))/cfg.seconds, len(got), cfg.timed(), median(all))
	for _, k := range []opKind{opRepeat, opFresh, opJoin, opThreeWay, opWrite} {
		var lat []float64
		got := closedLoop(ctx, time.Duration(float64(cfg.timed())/4), conns, func() request {
			q := pickMix(rng)
			q.Kind = k
			return q
		}, c.send)
		for _, s := range got {
			lat = append(lat, ms(s.Latency))
		}
		fmt.Fprintf(w, "  %-12s alone: %.1f q/s, p50 %.2f ms\n", opNames[k], float64(len(got))/(cfg.seconds/4), median(lat))
	}
	return nil
}
