package sink

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/batch"
	"repro/internal/memory"
	"repro/internal/mergejoin"
	"repro/internal/relation"
	"repro/internal/sorting"
)

// Agg selects the aggregate function of a group-by-key aggregation. The
// aggregation input of a joined pair is the paper's payload sum
// R.payload + S.payload (the default join projection); Count ignores the
// value and counts pairs per key.
type Agg int

const (
	// AggSum sums the values per key.
	AggSum Agg = iota
	// AggMin keeps the smallest value per key.
	AggMin
	// AggMax keeps the largest value per key.
	AggMax
	// AggCount counts the tuples per key.
	AggCount
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Valid reports whether a is a known aggregate function.
func (a Agg) Valid() bool { return a >= AggSum && a <= AggCount }

// initial is the accumulator value of a group's first tuple.
func (a Agg) initial(val uint64) uint64 {
	if a == AggCount {
		return 1
	}
	return val
}

// fold merges one more tuple value into a group accumulator.
func (a Agg) fold(acc, val uint64) uint64 {
	switch a {
	case AggMin:
		if val < acc {
			return val
		}
		return acc
	case AggMax:
		if val > acc {
			return val
		}
		return acc
	case AggCount:
		return acc + 1
	default:
		return acc + val
	}
}

// reduce aggregates the values of one whole group.
func (a Agg) reduce(vals []uint64) uint64 {
	switch a {
	case AggMin:
		return slices.Min(vals)
	case AggMax:
		return slices.Max(vals)
	case AggCount:
		return uint64(len(vals))
	default:
		var sum uint64
		for _, v := range vals {
			sum += v
		}
		return sum
	}
}

// merge combines two partial accumulators of the same group (for example,
// from two workers or two sorted segments).
func (a Agg) merge(x, y uint64) uint64 {
	switch a {
	case AggMin:
		if y < x {
			return y
		}
		return x
	case AggMax:
		if y > x {
			return y
		}
		return x
	default: // sum and count partials both add
		return x + y
	}
}

// GroupSink is a sink that reduces the joined pair stream to one tuple per
// distinct key: {Key: group key, Payload: aggregate value}. Both built-in
// implementations (MergeGroups, HashGroups) group by R.Key and aggregate the
// payload sum R.Payload + S.Payload, the join's default projection. Both
// aggregate key-ordered segments and k-way merge them: MergeGroups folds the
// segments a key-ordered join emits, HashGroups sorts what an unordered join
// emits into segments at Close. Neither builds a hash table.
type GroupSink interface {
	Sink
	// Groups returns the aggregated tuples in ascending key order. Call
	// after Close; the slice is valid until the next Open (it may be backed
	// by the output lease passed at construction).
	Groups() []relation.Tuple
}

// MergeGroups is the streaming merge-based group-by aggregate that exploits
// the key-ordered output of the MPSM join phase: each worker's pair stream is
// a sequence of key-sorted segments (one per public run it merges against),
// so the writer folds consecutive equal keys into one accumulator and seals a
// finished segment of aggregated (key, value) entries whenever the key order
// restarts. Close then k-way merges all sealed segments — combining partial
// accumulators of the same key — into the final sorted group list.
//
// No hash table is ever built: memory use is one entry per (segment, distinct
// key) pair, drawn from the join's scratch lease when pooling is enabled
// (MergeGroups implements Scratcher). The aggregation is correct for any
// emission order — out-of-order input merely produces more, shorter segments
// — but it is only economical above producers with key-ordered output
// (B-MPSM, P-MPSM, D-MPSM); above hash joins use HashGroups instead.
type MergeGroups struct {
	agg     Agg
	out     *memory.Lease // final merged buffer; nil allocates fresh
	lease   *memory.Lease // per-worker entry buffers (join lease via Scratcher)
	writers []*mergeGroupWriter
	groups  []relation.Tuple
}

// NewMergeGroups returns a streaming merge-based group-by sink. The final
// merged group buffer is drawn from out when non-nil — pass a lease that
// outlives the join (for example, the plan execution's lease) — and freshly
// allocated otherwise.
func NewMergeGroups(agg Agg, out *memory.Lease) *MergeGroups {
	return &MergeGroups{agg: agg, out: out}
}

// SetScratch implements Scratcher.
func (m *MergeGroups) SetScratch(lease *memory.Lease) { m.lease = lease }

// Open implements Sink.
func (m *MergeGroups) Open(workers int) {
	m.writers = make([]*mergeGroupWriter, workers)
	for w := range m.writers {
		m.writers[w] = &mergeGroupWriter{agg: m.agg, lease: m.lease}
	}
	m.groups = nil
}

// Writer implements Sink.
func (m *MergeGroups) Writer(w int) mergejoin.Consumer { return m.writers[w] }

// Close implements Sink: it merges all workers' sorted segments into the
// final group list.
func (m *MergeGroups) Close() error {
	var segs []groupSegment
	total := 0
	for _, w := range m.writers {
		w.finish()
		prev := 0
		for _, end := range w.segs {
			if end > prev {
				segs = append(segs, groupSegment{buf: w.entries, pos: prev, end: end})
				total += end - prev
			}
			prev = end
		}
	}
	out := m.out.Tuples(total) // nil lease allocates fresh
	m.groups = mergeSegments(m.agg, segs, out[:0])
	return nil
}

// Groups implements GroupSink.
func (m *MergeGroups) Groups() []relation.Tuple { return m.groups }

// mergeGroupWriter is one worker's consumer: a running accumulator over the
// current key plus the sealed, sorted segments of finished groups.
type mergeGroupWriter struct {
	agg     Agg
	lease   *memory.Lease
	entries []relation.Tuple // aggregated (key, value) entries, leased
	n       int
	segs    []int // end offsets of sealed sorted segments within entries

	curKey uint64
	curVal uint64
	active bool
}

// initialGroupEntries sizes the first leased entry buffer (2048 entries =
// 32 KiB, one cache-friendly leaf).
const initialGroupEntries = 2048

// Consume implements mergejoin.Consumer.
func (w *mergeGroupWriter) Consume(r, s relation.Tuple) {
	key, val := r.Key, r.Payload+s.Payload
	if w.active {
		if key == w.curKey {
			w.curVal = w.agg.fold(w.curVal, val)
			return
		}
		w.emit()
		if key < w.curKey {
			// The key order restarted: the producer moved on to the next
			// public run (or stole a new morsel). Seal the finished segment.
			w.segs = append(w.segs, w.n)
		}
	}
	w.curKey, w.curVal, w.active = key, w.agg.initial(val), true
}

// emit appends the finished accumulator as an entry, growing the leased
// buffer by doubling.
func (w *mergeGroupWriter) emit() {
	if w.n == len(w.entries) {
		grown := w.lease.Tuples(max(initialGroupEntries, 2*len(w.entries)))
		copy(grown, w.entries[:w.n])
		w.lease.PutTuples(w.entries)
		w.entries = grown
	}
	w.entries[w.n] = relation.Tuple{Key: w.curKey, Payload: w.curVal}
	w.n++
}

// finish flushes the running accumulator and seals the last segment.
func (w *mergeGroupWriter) finish() {
	if w.active {
		w.emit()
		w.active = false
	}
	if w.n > 0 && (len(w.segs) == 0 || w.segs[len(w.segs)-1] < w.n) {
		w.segs = append(w.segs, w.n)
	}
}

// groupSegment is a cursor over one sorted run of aggregated entries.
type groupSegment struct {
	buf      []relation.Tuple
	pos, end int
}

func (g groupSegment) key() uint64 { return g.buf[g.pos].Key }

// mergeSegments k-way merges sorted segments into dst, combining the partial
// accumulators of equal keys. Within one segment keys are strictly
// increasing, so equal keys only meet across segments. The merge uses a
// hand-rolled min-heap over the segment cursors — no hash table, no
// per-group allocation.
func mergeSegments(agg Agg, segs []groupSegment, dst []relation.Tuple) []relation.Tuple {
	h := make([]groupSegment, 0, len(segs))
	for _, s := range segs {
		if s.pos < s.end {
			h = append(h, s)
			siftUp(h, len(h)-1)
		}
	}
	for len(h) > 0 {
		key := h[0].key()
		acc := h[0].buf[h[0].pos].Payload
		advanceTop(&h)
		for len(h) > 0 && h[0].key() == key {
			acc = agg.merge(acc, h[0].buf[h[0].pos].Payload)
			advanceTop(&h)
		}
		dst = append(dst, relation.Tuple{Key: key, Payload: acc})
	}
	return dst
}

// advanceTop moves the heap root's cursor forward, dropping it when drained.
func advanceTop(h *[]groupSegment) {
	s := *h
	s[0].pos++
	if s[0].pos == s[0].end {
		s[0] = s[len(s)-1]
		s = s[:len(s)-1]
		*h = s
	}
	if len(s) > 0 {
		siftDown(s, 0)
	}
}

func siftUp(h []groupSegment, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[i].key() >= h[parent].key() {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []groupSegment, i int) {
	for {
		left, right := 2*i+1, 2*i+2
		least := i
		if left < len(h) && h[left].key() < h[least].key() {
			least = left
		}
		if right < len(h) && h[right].key() < h[least].key() {
			least = right
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// HashGroups is the group-by aggregate for producers without key-ordered
// output (the hash-join baselines, or arbitrary tuple streams). Every worker
// buffers its (R.Key, R.Payload + S.Payload) tuples, like Collect, in
// buffers drawn from the join's scratch lease (HashGroups implements
// Scratcher); Close sorts each worker's buffer into key/value columns, folds
// it into a key-ordered group segment and k-way merges the segments (see
// sortGroups), so both GroupSink implementations produce identical output.
// The name is kept for the plan's AggHash strategy it implements.
type HashGroups struct {
	agg    Agg
	out    *memory.Lease // final merged buffer; nil allocates fresh
	lease  *memory.Lease // per-worker buffers and sort scratch (join lease via Scratcher)
	parts  []*tupleBuffer
	groups []relation.Tuple
}

// NewHashGroups returns a sort-based group-by sink for unordered producers.
// The final group buffer is drawn from out when non-nil — pass a lease that
// outlives the join — and freshly allocated otherwise.
func NewHashGroups(agg Agg, out *memory.Lease) *HashGroups {
	return &HashGroups{agg: agg, out: out}
}

// SetScratch implements Scratcher.
func (h *HashGroups) SetScratch(lease *memory.Lease) { h.lease = lease }

// Open implements Sink.
func (h *HashGroups) Open(workers int) {
	h.parts = make([]*tupleBuffer, workers)
	for w := range h.parts {
		h.parts[w] = &tupleBuffer{project: DefaultProjection, lease: h.lease}
	}
	h.groups = nil
}

// Writer implements Sink.
func (h *HashGroups) Writer(w int) mergejoin.Consumer { return h.parts[w] }

// Close implements Sink: it aggregates every worker's buffer into a group
// segment and merges the segments into the final group list.
func (h *HashGroups) Close() error {
	chunks := make([][]relation.Tuple, len(h.parts))
	for w, p := range h.parts {
		chunks[w] = p.buf[:p.n]
	}
	h.groups = sortGroups(h.agg, chunks, h.lease, h.out)
	for _, p := range h.parts {
		p.release()
	}
	return nil
}

// Groups implements GroupSink.
func (h *HashGroups) Groups() []relation.Tuple { return h.groups }

// minAggregateChunk is the smallest chunk AggregateTuples sorts on its own
// goroutine. Splitting costs a k-way merge of the chunks' groups, which at
// about four tuples per group on a 2-core VM outweighed the concurrent sort
// below chunks of 2^17 tuples: 2^16 tuples took 24 ns/tuple in one chunk and
// 35–45 in two, 2^18 about the same either way, and 2^20 54 in one against
// 40 in two.
const minAggregateChunk = 1 << 17

// AggregateTuples groups a tuple stream by Tuple.Key and aggregates
// Tuple.Payload, returning the groups in ascending key order. It cuts the
// input into up to workers chunks (workers <= 0 selects GOMAXPROCS), each of
// at least minAggregateChunk tuples, and sorts and folds them concurrently
// (see sortGroups). Scratch and the result are drawn from lease — nil
// allocates fresh — and the input is left unmodified. The plan executor uses
// it for aggregates above already-materialized inputs.
func AggregateTuples(tuples []relation.Tuple, agg Agg, workers int, lease *memory.Lease) []relation.Tuple {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return aggregateChunks(tuples, agg, max(1, min(workers, len(tuples)/minAggregateChunk)), lease)
}

// aggregateChunks is AggregateTuples over exactly k chunks.
func aggregateChunks(tuples []relation.Tuple, agg Agg, k int, lease *memory.Lease) []relation.Tuple {
	n := len(tuples)
	chunks := make([][]relation.Tuple, k)
	for i := range chunks {
		chunks[i] = tuples[i*n/k : (i+1)*n/k]
	}
	return sortGroups(agg, chunks, lease, lease)
}

// sortGroups is the sort-based group-by shared by AggregateTuples and
// HashGroups. Each chunk becomes a key-ordered group segment (sortFold),
// concurrently, one goroutine per chunk; the segments are then k-way merged
// (mergeSegments) into a buffer drawn from out, and handed back to lease. No
// hash table is built at any point.
func sortGroups(agg Agg, chunks [][]relation.Tuple, lease, out *memory.Lease) []relation.Tuple {
	segs := make([]groupSegment, len(chunks))
	fold := func(i int) {
		g := sortFold(agg, chunks[i], lease)
		segs[i] = groupSegment{buf: g, end: len(g)}
	}
	if len(chunks) == 1 {
		fold(0)
	} else {
		// A panic on a helper goroutine would take the process down, out of
		// reach of the caller's containment; recover it there and re-raise
		// it on the calling goroutine once every chunk has stopped.
		panics := make([]any, len(chunks))
		var wg sync.WaitGroup
		for i := range chunks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { panics[i] = recover() }()
				fold(i)
			}()
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
	total := 0
	for _, s := range segs {
		total += s.end
	}
	groups := out.Tuples(total)[:0] // nil lease allocates fresh
	if len(segs) == 1 {
		groups = append(groups, segs[0].buf...)
	} else {
		groups = mergeSegments(agg, segs, groups)
	}
	for _, s := range segs {
		lease.PutTuples(s.buf)
	}
	return groups
}

// sortFold sorts src into key/value columns leased from lease
// (sorting.SortTuplesIntoColumnsLeased), folds each run of equal keys into
// one (key, aggregate) entry in place at the columns' front, and returns the
// groups interleaved into a tuple buffer leased for just their number.
func sortFold(agg Agg, src []relation.Tuple, lease *memory.Lease) []relation.Tuple {
	n := len(src)
	keys, vals := lease.Uint64s(n), lease.Uint64s(n)
	sorting.SortTuplesIntoColumnsLeased(src, keys, vals, lease)
	g := 0
	for i := 0; i < n; {
		k, j := keys[i], i+1
		for j < n && keys[j] == k {
			j++
		}
		// g <= i: the group's values are read before its entry overwrites
		// them.
		keys[g], vals[g] = k, agg.reduce(vals[i:j])
		g++
		i = j
	}
	groups := lease.Tuples(g)
	batch.Interleave(keys[:g], vals[:g], groups)
	lease.PutUint64s(keys)
	lease.PutUint64s(vals)
	return groups
}
