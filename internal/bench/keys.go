package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	mpsm "repro"
	"repro/internal/keys"
)

func init() {
	register(Experiment{
		Name:  "keys",
		Title: "Normalized keys: string and composite joins vs a comparator-based row fallback, exact-prefix control, collision-rate sweep",
		Run:   runKeysExperiment,
		JSON:  keysJSON,
	})
}

// keysRepetitions is the best-of repetition count per measured join;
// keysControlRepetitions is higher because the exact-prefix control asserts a
// ~2% bound, close to the noise floor even of an idle machine.
const (
	keysRepetitions        = 5
	keysControlRepetitions = 9
)

// keysSize floors the per-side cardinality at 2^17 for measurement-grade runs
// (scale >= 0.25, the CI bench scale): the acceptance ratio compares an
// engine join against a single-threaded comparator sort-merge whose relative
// cost only stabilizes once both run for several milliseconds. Tiny scales
// run at their natural size so the experiment stays fast under the race
// detector.
func keysSize(cfg Config) int {
	n := cfg.RSize()
	if cfg.Scale >= 0.25 && n < 1<<17 {
		n = 1 << 17
	}
	return n
}

// KeysCollisionCell is one point of the collision-rate sweep: the same
// string join measured with progressively longer shared key prefixes, which
// push the prefix-collision rate (and with it the tie-break verifier's
// workload) from ~0% towards 100%.
type KeysCollisionCell struct {
	SharedPrefixBytes int     `json:"shared_prefix_bytes"`
	CollisionRate     float64 `json:"collision_rate"`
	Millis            float64 `json:"millis"`
	Matches           uint64  `json:"matches"`
}

// KeysReport is the machine-readable report (BENCH_keys.json).
type KeysReport struct {
	GeneratedAt string  `json:"generated_at"`
	Scale       float64 `json:"scale"`
	Tuples      int     `json:"tuples"`
	Workers     int     `json:"workers"`

	// String join: variable-length keys with shared prefixes through the
	// normalized-key engine path (encode once at ingest, join on the 8-byte
	// prefix, verify candidates against full keys) vs a comparator-based
	// row fallback (sort.Slice with the multi-column comparator on both
	// sides, then a comparator merge join). EncodeMillis is the one-time
	// normalization cost, reported separately because a system stores
	// normalized keys at ingest, not per join.
	StringNormalizedMillis float64 `json:"string_normalized_millis"`
	StringComparatorMillis float64 `json:"string_comparator_millis"`
	StringEncodeMillis     float64 `json:"string_encode_millis"`
	// StringSpeedup is comparator/normalized (acceptance: >= 2 under
	// MPSM_PERF_ASSERT).
	StringSpeedup float64 `json:"string_speedup"`

	// Composite join: (bytes, int64) keys, same comparison.
	CompositeNormalizedMillis float64 `json:"composite_normalized_millis"`
	CompositeComparatorMillis float64 `json:"composite_comparator_millis"`
	CompositeEncodeMillis     float64 `json:"composite_encode_millis"`
	CompositeSpeedup          float64 `json:"composite_speedup"`

	// Exact-prefix control: the same uniform uint64 join once with raw keys
	// and once encoded under a single-column uint64 schema. The schema
	// relation is bit-identical in keys and payloads (the normalization of a
	// lone uint64 column is the identity) and carries only an exactness
	// marker, so ExactOverhead — schema millis over raw millis — measures
	// the fast path's overhead: nothing but noise around 1.0 (acceptance:
	// <= 1.02 under MPSM_PERF_ASSERT).
	RawUint64Millis   float64 `json:"raw_uint64_millis"`
	ExactSchemaMillis float64 `json:"exact_schema_millis"`
	ExactOverhead     float64 `json:"exact_overhead"`

	// Collision contains the collision-rate sweep.
	Collision []KeysCollisionCell `json:"collision"`
}

// keysStringData builds n string keys "x…x<8 digits>" with sharedPrefix
// leading bytes in common, drawn with duplicates so the join has real
// multi-match groups. The join value is spread over the full 8-digit space
// (multiplication by a unit mod 10^8, injective on the value domain) so the
// digits that survive in the 8-byte prefix discriminate uniformly: longer
// shared prefixes raise the prefix-collision rate smoothly instead of
// collapsing the relation onto a handful of prefixes and blowing the
// candidate stream up quadratically.
func keysStringData(n, sharedPrefix int, seed int64) ([][]keys.Value, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	prefix := make([]byte, sharedPrefix)
	for i := range prefix {
		prefix[i] = 'x'
	}
	rows := make([][]keys.Value, n)
	pays := make([]uint64, n)
	for i := range rows {
		v := (uint64(rng.Intn(n)) * 9973) % 100000000
		k := fmt.Sprintf("%s%08d", prefix, v)
		rows[i] = []keys.Value{keys.StringValue(k)}
		pays[i] = uint64(rng.Intn(1 << 27))
	}
	return rows, pays
}

// keysCompositeData builds n (id, region) composite keys: an int64 id drawn
// with ~4x duplication and a low-cardinality region string. The selective
// column leads — normalized-key schema design follows the same rule as
// composite index design — so the 8-byte prefix is the full id and only
// same-id rows with different regions collide into the tie-break path.
func keysCompositeData(n int, seed int64) ([][]keys.Value, []uint64) {
	regions := []string{"region-east", "region-west", "region-north", "region-south"}
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]keys.Value, n)
	pays := make([]uint64, n)
	for i := range rows {
		rows[i] = []keys.Value{
			keys.Int64Value(int64(rng.Intn(n/4)) - int64(n/8)),
			keys.StringValue(regions[rng.Intn(len(regions))]),
		}
		pays[i] = uint64(rng.Intn(1 << 27))
	}
	return rows, pays
}

// comparatorJoin is the row fallback a system without normalized keys runs:
// sort both inputs with the multi-column comparator, then merge with the
// same comparator, counting matches and the max payload sum. Single-threaded
// on purpose — the fallback has no radix representation to parallelize over,
// which is exactly the cost the normalized-key path removes.
func comparatorJoin(sc *keys.Schema, rRows, sRows [][]keys.Value, rPays, sPays []uint64) (matches, maxSum uint64) {
	ri := make([]int, len(rRows))
	si := make([]int, len(sRows))
	for i := range ri {
		ri[i] = i
	}
	for i := range si {
		si[i] = i
	}
	sort.Slice(ri, func(a, b int) bool { return sc.CompareRows(rRows[ri[a]], rRows[ri[b]]) < 0 })
	sort.Slice(si, func(a, b int) bool { return sc.CompareRows(sRows[si[a]], sRows[si[b]]) < 0 })

	r, s := 0, 0
	for r < len(ri) && s < len(si) {
		c := sc.CompareRows(rRows[ri[r]], sRows[si[s]])
		switch {
		case c < 0:
			r++
		case c > 0:
			s++
		default:
			// Equal groups on both sides: cross product.
			rEnd := r + 1
			for rEnd < len(ri) && sc.CompareRows(rRows[ri[rEnd]], rRows[ri[r]]) == 0 {
				rEnd++
			}
			sEnd := s + 1
			for sEnd < len(si) && sc.CompareRows(sRows[si[sEnd]], sRows[si[s]]) == 0 {
				sEnd++
			}
			for a := r; a < rEnd; a++ {
				for b := s; b < sEnd; b++ {
					matches++
					if sum := rPays[ri[a]] + sPays[si[b]]; sum > maxSum {
						maxSum = sum
					}
				}
			}
			r, s = rEnd, sEnd
		}
	}
	return matches, maxSum
}

// collisionRate reports the fraction of distinct full keys that share their
// 8-byte prefix with another distinct key, measured over the encoded
// relation (mirrors the planner's sampled estimate, but exact).
func collisionRate(rel *mpsm.Relation) float64 {
	meta := rel.Meta
	if meta == nil || meta.Exact() {
		return 0
	}
	prefixes := make(map[uint64]struct{})
	full := make(map[string]struct{})
	for i := range rel.Tuples {
		prefixes[rel.Tuples[i].Key] = struct{}{}
		full[string(meta.FullKey(i))] = struct{}{}
	}
	if len(full) == 0 {
		return 0
	}
	return float64(len(full)-len(prefixes)) / float64(len(full))
}

// keysJoinMillis measures the engine join best-of-reps, returning the
// minimum wall clock and the (consistency-checked) result.
func keysJoinMillis(e *mpsm.Engine, r, s *mpsm.Relation, reps int) (float64, *mpsm.Result, error) {
	var best time.Duration
	var res *mpsm.Result
	for i := 0; i < reps; i++ {
		start := time.Now()
		out, err := e.Join(context.Background(), r, s)
		d := time.Since(start)
		if err != nil {
			return 0, nil, err
		}
		if res == nil || d < best {
			best, res = d, out
		}
	}
	return millis(best), res, nil
}

// keysControlMillis times the exact-prefix control: the raw and the
// schema-keyed self-join alternate rep by rep, with the order flipped every
// rep, and each keeps its best time. Timing the two as back-to-back blocks
// would let the heap, GC pacing and neighbour load drift between the blocks,
// an order bias as large as the bound the control asserts.
func keysControlMillis(e *mpsm.Engine, raw, exact *mpsm.Relation, reps int) (rawMillis, exactMillis float64, rawRes, exactRes *mpsm.Result, err error) {
	rawS, exactS := raw.Clone(), exact.Clone()
	for i := 0; i < reps; i++ {
		for side := 0; side < 2; side++ {
			r, s, best, res := raw, rawS, &rawMillis, &rawRes
			if (i+side)%2 == 1 {
				r, s, best, res = exact, exactS, &exactMillis, &exactRes
			}
			m, out, err := keysJoinMillis(e, r, s, 1)
			if err != nil {
				return 0, 0, nil, nil, err
			}
			if *res == nil || m < *best {
				*best, *res = m, out
			}
		}
	}
	return rawMillis, exactMillis, rawRes, exactRes, nil
}

// buildKeysReport measures the normalized-key comparisons.
func buildKeysReport(cfg Config) (*KeysReport, error) {
	n := keysSize(cfg)
	rep := &KeysReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       cfg.Scale,
		Tuples:      n,
		Workers:     cfg.workers(),
	}
	e := mpsm.New(mpsm.WithWorkers(cfg.workers()))

	// --- String join: shared 4-byte prefix, so the prefix carries real
	// discriminating power but the tie-break path still sees collisions.
	strSchema := mpsm.MustSchema(mpsm.SchemaColumn{Name: "name", Type: mpsm.ColumnBytes})
	rRows, rPays := keysStringData(n, 4, 1)
	sRows, sPays := keysStringData(n, 4, 2)
	encStart := time.Now()
	rRel, err := strSchema.Encode("R", rRows, rPays)
	if err != nil {
		return nil, err
	}
	sRel, err := strSchema.Encode("S", sRows, sPays)
	if err != nil {
		return nil, err
	}
	rep.StringEncodeMillis = millis(time.Since(encStart))
	normMillis, normRes, err := keysJoinMillis(e, rRel, sRel, keysRepetitions)
	if err != nil {
		return nil, err
	}
	comp := bestOfKernelN(keysRepetitions, func() {
		m, _ := comparatorJoin(strSchema, rRows, sRows, rPays, sPays)
		columnarSink += m
	})
	wantM, wantMax := comparatorJoin(strSchema, rRows, sRows, rPays, sPays)
	if normRes.Matches != wantM || normRes.MaxSum != wantMax {
		return nil, fmt.Errorf("string join disagrees with comparator fallback: (%d, %d) vs (%d, %d)",
			normRes.Matches, normRes.MaxSum, wantM, wantMax)
	}
	rep.StringNormalizedMillis, rep.StringComparatorMillis = normMillis, millis(comp)
	if normMillis > 0 {
		rep.StringSpeedup = rep.StringComparatorMillis / normMillis
	}

	// --- Composite join: (bytes, int64).
	compSchema := mpsm.MustSchema(
		mpsm.SchemaColumn{Name: "id", Type: mpsm.ColumnInt64},
		mpsm.SchemaColumn{Name: "region", Type: mpsm.ColumnBytes},
	)
	crRows, crPays := keysCompositeData(n, 3)
	csRows, csPays := keysCompositeData(n, 4)
	encStart = time.Now()
	crRel, err := compSchema.Encode("R", crRows, crPays)
	if err != nil {
		return nil, err
	}
	csRel, err := compSchema.Encode("S", csRows, csPays)
	if err != nil {
		return nil, err
	}
	rep.CompositeEncodeMillis = millis(time.Since(encStart))
	normMillis, normRes, err = keysJoinMillis(e, crRel, csRel, keysRepetitions)
	if err != nil {
		return nil, err
	}
	comp = bestOfKernelN(keysRepetitions, func() {
		m, _ := comparatorJoin(compSchema, crRows, csRows, crPays, csPays)
		columnarSink += m
	})
	wantM, wantMax = comparatorJoin(compSchema, crRows, csRows, crPays, csPays)
	if normRes.Matches != wantM || normRes.MaxSum != wantMax {
		return nil, fmt.Errorf("composite join disagrees with comparator fallback: (%d, %d) vs (%d, %d)",
			normRes.Matches, normRes.MaxSum, wantM, wantMax)
	}
	rep.CompositeNormalizedMillis, rep.CompositeComparatorMillis = normMillis, millis(comp)
	if normMillis > 0 {
		rep.CompositeSpeedup = rep.CompositeComparatorMillis / normMillis
	}

	// --- Exact-prefix control: identical uint64 join, raw vs schema-keyed.
	rng := rand.New(rand.NewSource(5))
	uRows := make([][]keys.Value, n)
	uPays := make([]uint64, n)
	rawTuples := make([]mpsm.Tuple, n)
	for i := 0; i < n; i++ {
		k := rng.Uint64() % uint64(n)
		uRows[i] = []keys.Value{keys.Uint64Value(k)}
		uPays[i] = uint64(i)
		rawTuples[i] = mpsm.Tuple{Key: k, Payload: uint64(i)}
	}
	uintSchema := mpsm.MustSchema(mpsm.SchemaColumn{Name: "id", Type: mpsm.ColumnUint64})
	exactRel, err := uintSchema.Encode("E", uRows, uPays)
	if err != nil {
		return nil, err
	}
	rawRel := mpsm.NewRelation("E", rawTuples)
	rawMillis, exactMillis, rawRes, exactRes, err := keysControlMillis(e, rawRel, exactRel, keysControlRepetitions)
	if err != nil {
		return nil, err
	}
	if exactRes.Matches != rawRes.Matches || exactRes.MaxSum != rawRes.MaxSum {
		return nil, fmt.Errorf("exact-schema join disagrees with raw join: (%d, %d) vs (%d, %d)",
			exactRes.Matches, exactRes.MaxSum, rawRes.Matches, rawRes.MaxSum)
	}
	rep.RawUint64Millis, rep.ExactSchemaMillis = rawMillis, exactMillis
	if rawMillis > 0 {
		rep.ExactOverhead = exactMillis / rawMillis
	}

	// --- Collision-rate sweep: longer shared prefixes starve the 8-byte
	// prefix of discriminating digits; the join result is invariant, only
	// the tie-break verifier works harder. The sweep stops at 5 shared
	// bytes (3 discriminating digits): beyond that the equal-prefix groups
	// grow large enough that the candidate cross product, not the verifier,
	// dominates — the degenerate regime a leading selective column avoids.
	for _, shared := range []int{0, 2, 4, 5} {
		swR, swRPays := keysStringData(n, shared, 6)
		swS, swSPays := keysStringData(n, shared, 7)
		swRRel, err := strSchema.Encode("R", swR, swRPays)
		if err != nil {
			return nil, err
		}
		swSRel, err := strSchema.Encode("S", swS, swSPays)
		if err != nil {
			return nil, err
		}
		ms, res, err := keysJoinMillis(e, swRRel, swSRel, 3)
		if err != nil {
			return nil, err
		}
		rep.Collision = append(rep.Collision, KeysCollisionCell{
			SharedPrefixBytes: shared,
			CollisionRate:     collisionRate(swRRel),
			Millis:            ms,
			Matches:           res.Matches,
		})
	}
	return rep, nil
}

// runKeysExperiment renders the comparisons as tables.
func runKeysExperiment(cfg Config, w io.Writer) error {
	rep, err := buildKeysReport(cfg)
	if err != nil {
		return err
	}
	tbl := newTable(w)
	tbl.row("join", "path", "time [ms]", "speedup")
	tbl.row("string", "comparator fallback", fmt.Sprintf("%.2f", rep.StringComparatorMillis), "")
	tbl.row("string", "normalized keys", fmt.Sprintf("%.2f", rep.StringNormalizedMillis), fmt.Sprintf("%.2fx", rep.StringSpeedup))
	tbl.row("composite", "comparator fallback", fmt.Sprintf("%.2f", rep.CompositeComparatorMillis), "")
	tbl.row("composite", "normalized keys", fmt.Sprintf("%.2f", rep.CompositeNormalizedMillis), fmt.Sprintf("%.2fx", rep.CompositeSpeedup))
	tbl.row("uint64", "raw keys", fmt.Sprintf("%.2f", rep.RawUint64Millis), "")
	tbl.row("uint64", "exact schema", fmt.Sprintf("%.2f", rep.ExactSchemaMillis), fmt.Sprintf("%.3fx", rep.ExactOverhead))
	tbl.flush()
	fmt.Fprintf(w, "\ncollision sweep (string join, %d tuples/side):\n", rep.Tuples)
	tbl = newTable(w)
	tbl.row("shared prefix [B]", "collision rate", "time [ms]", "matches")
	for _, c := range rep.Collision {
		tbl.row(fmt.Sprintf("%d", c.SharedPrefixBytes), fmt.Sprintf("%.1f%%", 100*c.CollisionRate),
			fmt.Sprintf("%.2f", c.Millis), fmt.Sprintf("%d", c.Matches))
	}
	tbl.flush()
	fmt.Fprintf(w, "\nstring %.2fx, composite %.2fx over the comparator fallback (target ≥ 2); exact-prefix overhead %.3fx (target ≤ 1.02)\n",
		rep.StringSpeedup, rep.CompositeSpeedup, rep.ExactOverhead)
	if cfg.Verbose {
		fmt.Fprintln(w, "expected shape: normalized keys keep the radix sort and cache-blocked merge; the fallback pays a comparator call per sort/merge step. Encode cost (paid once at ingest): string "+
			fmt.Sprintf("%.2f ms, composite %.2f ms", rep.StringEncodeMillis, rep.CompositeEncodeMillis))
	}
	return nil
}

// keysJSON produces the machine-readable keys report.
func keysJSON(cfg Config) (any, error) {
	return buildKeysReport(cfg)
}
