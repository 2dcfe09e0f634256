package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rangeagg/internal/cluster"
	"rangeagg/internal/serve"
)

const (
	pointHot    = "point-hot"
	routedScan  = "routed-scan"
	ingestMixed = "ingest-mixed"
)

// Batch budgets. A routed batch sends each node the smallest of its
// sub-range budget shares, and a sliver of a boundary-straddling range
// gets a tiny share; at scanMaxErr about one routed answer in six still
// falls through to the exact tables, the rest come from a synopsis.
const (
	scanMaxErr   = 1000
	ingestMaxErr = 32
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	reps     int
	warmup   time.Duration
	outDir   string
	tmpDir   string
}

// sliceLen splits a window into slices. Latency and throughput are taken
// per slice and reported from the fastest slices: host interference only
// ever adds time, and on a shared host it comes and goes in stretches of
// seconds that would otherwise decide a run. A slice is long enough to
// hold a publish and a checkpoint on ingest-mixed and ten routed reads
// beyond its p99.
const sliceLen = 2 * time.Second

// window is one measured phase of the reader (and, on ingest-mixed, of
// the writer, whose writes are attributed by due time).
type window struct {
	start, end time.Time
	lat        []uint32 // client-observed read latency, ns, in completion order
	cuts       []int    // cuts[k] indexes the first latency of slice k
	sliceAns   []int64  // answers completed per slice
	sliceP50s  []float64
	answers    int64
	respBytes  int64
	requests   int64
	rel        relHist
	traced     []tracedRead
}

// tracedRead remembers what a traced read asked, for the replays.
type tracedRead struct {
	id      int64
	draw    int64 // first hot-stream draw (point-hot, ingest-mixed)
	version int64
}

// seenVersion is the first time the ingest-mixed reader saw a version.
type seenVersion struct {
	version int64
	at      int64 // ns since the run epoch
}

// conn is one client goroutine's response buffer.
type conn struct{ buf bytes.Buffer }

type bench struct {
	opt     options
	epoch   time.Time
	counts  []int64
	prefix  []int64
	pool    []rangeQ
	windows []cluster.Window
	owned   [][]int64

	client *http.Client
	tr     *tracer // nil unless tracing
	st     *stack

	hot      *hotStream
	hotDraws int64
	scan     *scanStream
	writes   *writeStream
	reader   conn
	writer   conn
	reqBuf   []byte
	ranges   [][2]int
	batch    batchResp
	nextReq  atomic.Int64

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failMsgs  []string

	cur *window // the reader's current measured window, nil in warm-up

	// ingest-mixed state.
	truth *truthLog
	wlog  writerLog
	seen  []seenVersion
	snaps map[int64]*serve.Snapshot // traced: the snapshot behind each version read
}

// newBench generates the inputs and allocates the driver's buffers, all
// before setup, so neither shows up as heap growth in the window.
func newBench(o options) (*bench, error) {
	b := &bench{opt: o, epoch: time.Now()}
	switch o.workload {
	case pointHot, routedScan, ingestMixed:
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", o.workload, pointHot, routedScan, ingestMixed)
	}
	b.counts = genCounts()
	b.prefix = prefixSums(b.counts)
	b.pool = genPool(o.seed, b.prefix)
	b.hot = newHotStream(o.seed, b.pool)
	b.scan = newScanStream(o.seed)
	b.writes = newWriteStream(o.seed)
	b.ranges = make([][2]int, batchSize)
	b.reqBuf = make([]byte, 0, 16<<10)
	b.batch.Values = make([]float64, 0, batchSize)
	b.batch.Errs = make([]optFloat, 0, batchSize)
	b.batch.Served = make([]bool, 0, batchSize)
	if o.workload == routedScan {
		b.windows = nodeWindows(2)
		for _, w := range b.windows {
			b.owned = append(b.owned, ownedCounts(b.counts, w))
		}
	}
	if o.workload == ingestMixed {
		phases := o.warmup.Seconds() + o.seconds
		if o.trace {
			phases += o.seconds
		}
		n := int(float64(writeRate)*phases) + writeRate
		b.wlog = writerLog{due: make([]int64, 0, n), sent: make([]int64, 0, n), ack: make([]int64, 0, n)}
		b.truth = newTruthLog(b.counts, n)
		b.seen = make([]seenVersion, 0, 4096)
	}
	if o.trace {
		b.tr = newTracer(sampleEvery(o.workload))
		b.tr.epoch = b.epoch
		b.snaps = make(map[int64]*serve.Snapshot)
	}
	b.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
	return b, nil
}

// sampleEvery picks the traced requests whose layers are replayed: about
// two thousand per traced window.
func sampleEvery(workload string) int64 {
	switch workload {
	case pointHot:
		return 64
	case routedScan:
		return 4
	}
	return 8
}

// newWindow preallocates a window sized for the workload's highest
// plausible request rate.
func (b *bench) newWindow() *window {
	perSec := map[string]float64{pointHot: 40000, routedScan: 4000, ingestMixed: 8000}[b.opt.workload]
	return &window{lat: make([]uint32, 0, int(perSec*b.opt.seconds)+1024)}
}

func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.failMu.Lock()
	if len(b.failMsgs) < 5 {
		b.failMsgs = append(b.failMsgs, fmt.Sprintf(format, args...))
	}
	b.failMu.Unlock()
}

// coldStart stands the workload's stack up from generated counts to the
// first answer through its front door; setup_s times exactly this.
func (b *bench) coldStart(rep int) (*stack, time.Duration, error) {
	wrap := b.tr.wrapServe
	start := time.Now()
	var st *stack
	var err error
	switch b.opt.workload {
	case pointHot:
		var n *node
		if n, err = startNode(b.counts, "", false, wrap); err == nil {
			st = &stack{nodes: []*node{n}, front: n.front.url}
		}
	case ingestMixed:
		dir := filepath.Join(b.opt.tmpDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), rep))
		var n *node
		if n, err = startNode(b.counts, dir, true, wrap); err == nil {
			st = &stack{nodes: []*node{n}, front: n.front.url}
		}
	case routedScan:
		st, err = startRouted(b.owned, b.windows, b.tr)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("cold start: %w", err)
	}
	if err := firstAnswer(b.client, st.front); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("cold start: %w", err)
	}
	return st, time.Since(start), nil
}

// do sends one request and reads the whole response; the returned time
// covers the round trip up to the last body byte. With tracing on, the
// request carries its id and gets a client span.
func (b *bench) do(c *conn, req *http.Request, name string) ([]byte, time.Duration, int64, error) {
	var id int64
	tracing := b.tr != nil && b.tr.on.Load()
	if tracing {
		id = b.nextReq.Add(1)
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		if name == "client" {
			b.tr.cur.Store(id)
		}
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, 0, id, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if tracing {
		if name == "client" {
			b.tr.cur.Store(0)
		}
		b.tr.record(span{Name: name, Req: id, Start: b.tr.since(start), End: b.tr.since(end), Parent: -1})
	}
	if err != nil {
		return nil, 0, id, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, id, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), end.Sub(start), id, nil
}

// observe files one successful read into the current window.
func (b *bench) observe(rt time.Duration, answers, size int, tr tracedRead) {
	w := b.cur
	if w == nil {
		return
	}
	ns := rt.Nanoseconds()
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	k := int(time.Since(w.start) / sliceLen)
	for len(w.cuts) <= k {
		w.cuts = append(w.cuts, len(w.lat))
		w.sliceAns = append(w.sliceAns, 0)
	}
	w.sliceAns[k] += int64(answers)
	w.lat = append(w.lat, uint32(ns))
	w.answers += int64(answers)
	w.respBytes += int64(size)
	w.requests++
	if tr.id != 0 {
		w.traced = append(w.traced, tr)
	}
}

// relErr files one checked answer into the current window's relerr
// distribution.
func (b *bench) relErr(value float64, exact int64) {
	if b.cur != nil {
		b.cur.rel.add(math.Abs(value-float64(exact)) / math.Max(float64(exact), 1))
	}
}

// step sends one read request of the workload and checks every answer.
func (b *bench) step() {
	switch b.opt.workload {
	case pointHot:
		b.pointStep()
	case routedScan:
		b.scanStep()
	default:
		b.ingestReadStep()
	}
}

func (b *bench) pointStep() {
	q := b.hot.next()
	draw := b.hotDraws
	b.hotDraws++
	u := append(b.reqBuf[:0], b.st.front...)
	u = append(u, "/query?a="...)
	u = strconv.AppendInt(u, int64(q.A), 10)
	u = append(u, "&b="...)
	u = strconv.AppendInt(u, int64(q.B), 10)
	u = append(u, "&maxerr="...)
	u = strconv.AppendFloat(u, q.MaxErr, 'g', -1, 64)
	b.reqBuf = u
	req, err := http.NewRequest(http.MethodGet, string(u), nil)
	if err != nil {
		b.fail("building request: %v", err)
		return
	}
	b.attempted.Add(1)
	body, rt, id, err := b.do(&b.reader, req, "client")
	if err != nil {
		b.fail("GET /query: %v", err)
		return
	}
	var resp struct {
		Value   float64  `json:"value"`
		Version int64    `json:"version"`
		Err     optFloat `json:"err"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		b.fail("decoding /query answer: %v", err)
		return
	}
	exact := b.prefix[q.B+1] - b.prefix[q.A]
	if why := verdict(resp.Value, resp.Err, exact, q.MaxErr); why != "" {
		b.fail("[%d,%d] maxerr %g: %s (value %g, bound %+v, exact %d)", q.A, q.B, q.MaxErr, why, resp.Value, resp.Err, exact)
		return
	}
	b.relErr(resp.Value, exact)
	b.observe(rt, 1, len(body), tracedRead{id: id, draw: draw, version: resp.Version})
}

// batchBody renders the current ranges into the reusable request buffer.
func (b *bench) batchBody(maxErr float64) []byte {
	b.reqBuf = appendBatch(b.reqBuf[:0], b.ranges, maxErr)
	return b.reqBuf
}

func batchJSON(ranges [][2]int, maxErr float64) []byte { return appendBatch(nil, ranges, maxErr) }

// appendBatch renders {"ranges":[[a,b],...],"maxerr":m}.
func appendBatch(u []byte, ranges [][2]int, maxErr float64) []byte {
	u = append(u, `{"ranges":[`...)
	for i, r := range ranges {
		if i > 0 {
			u = append(u, ',')
		}
		u = append(u, '[')
		u = strconv.AppendInt(u, int64(r[0]), 10)
		u = append(u, ',')
		u = strconv.AppendInt(u, int64(r[1]), 10)
		u = append(u, ']')
	}
	u = append(u, `],"maxerr":`...)
	u = strconv.AppendFloat(u, maxErr, 'g', -1, 64)
	return append(u, '}')
}

// batchResp decodes both node and router /query/batch answers.
type batchResp struct {
	Values  []float64  `json:"values"`
	Errs    []optFloat `json:"errs"`
	Version int64      `json:"version"`
	Served  []bool     `json:"served"`
	Partial bool       `json:"partial"`
}

func (b *bench) postBatch(maxErr float64) (time.Duration, int, int64, bool) {
	req, err := http.NewRequest(http.MethodPost, b.st.front+"/query/batch", bytes.NewReader(b.batchBody(maxErr)))
	if err != nil {
		b.fail("building request: %v", err)
		return 0, 0, 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	b.attempted.Add(1)
	body, rt, id, err := b.do(&b.reader, req, "client")
	if err != nil {
		b.fail("POST /query/batch: %v", err)
		return 0, 0, 0, false
	}
	b.batch.Served = b.batch.Served[:0]
	b.batch.Partial = false
	if err := json.Unmarshal(body, &b.batch); err != nil {
		b.fail("decoding batch answer: %v", err)
		return 0, 0, 0, false
	}
	if len(b.batch.Values) != len(b.ranges) || len(b.batch.Errs) != len(b.ranges) {
		b.fail("batch answered %d values and %d bounds for %d ranges", len(b.batch.Values), len(b.batch.Errs), len(b.ranges))
		return 0, 0, 0, false
	}
	return rt, len(body), id, true
}

func (b *bench) scanStep() {
	for i := range b.ranges {
		b.ranges[i] = b.scan.next()
	}
	rt, size, id, ok := b.postBatch(scanMaxErr)
	if !ok {
		return
	}
	if b.batch.Partial {
		b.fail("routed batch answer is partial")
		return
	}
	for i, r := range b.ranges {
		if len(b.batch.Served) == len(b.ranges) && !b.batch.Served[i] {
			b.fail("routed range [%d,%d] not served", r[0], r[1])
			return
		}
		exact := b.prefix[r[1]+1] - b.prefix[r[0]]
		if why := verdict(b.batch.Values[i], b.batch.Errs[i], exact, scanMaxErr); why != "" {
			b.fail("routed [%d,%d]: %s (value %g, bound %+v, exact %d)", r[0], r[1], why, b.batch.Values[i], b.batch.Errs[i], exact)
			return
		}
		b.relErr(b.batch.Values[i], exact)
	}
	b.observe(rt, len(b.ranges), size, tracedRead{id: id})
}

func (b *bench) ingestReadStep() {
	draw := b.hotDraws
	for i := range b.ranges {
		q := b.hot.next()
		b.ranges[i] = [2]int{q.A, q.B}
	}
	b.hotDraws += int64(len(b.ranges))
	rt, size, id, ok := b.postBatch(ingestMaxErr)
	if !ok {
		return
	}
	done := time.Now()
	v := b.batch.Version
	prefix, err := b.truth.at(v)
	if err != nil {
		b.fail("ground truth: %v", err)
		return
	}
	for i, r := range b.ranges {
		exact := prefix[r[1]+1] - prefix[r[0]]
		if why := verdict(b.batch.Values[i], b.batch.Errs[i], exact, ingestMaxErr); why != "" {
			b.fail("version %d [%d,%d]: %s (value %g, bound %+v, exact %d)", v, r[0], r[1], why, b.batch.Values[i], b.batch.Errs[i], exact)
			return
		}
		b.relErr(b.batch.Values[i], exact)
	}
	if len(b.seen) == 0 || v > b.seen[len(b.seen)-1].version {
		b.seen = append(b.seen, seenVersion{version: v, at: int64(done.Sub(b.epoch))})
	}
	if id != 0 && b.snaps[v] == nil {
		// Keep the snapshot this version was answered from for the
		// replay; a publish landing in between is skipped.
		if s := b.st.nodes[0].srv.Snapshot(); s.Version == v {
			b.snaps[v] = s
		}
	}
	b.observe(rt, len(b.ranges), size, tracedRead{id: id, draw: draw, version: v})
}

// readPhase runs the closed-loop reader until the deadline, filing
// latencies into w (nil = warm-up).
func (b *bench) readPhase(d time.Duration, w *window) {
	b.cur = w
	start := time.Now()
	until := start.Add(d)
	if w != nil {
		w.start = start
	}
	for time.Now().Before(until) {
		b.step()
	}
	if w != nil {
		w.end = time.Now()
	}
	b.cur = nil
}

// writerLog is the open-loop writer's record per write, in ns since the
// run epoch: when it was due, when it was sent, when it was acknowledged
// (0 = failed).
type writerLog struct {
	due, sent, ack []int64
}

// writeLoop is the ingest-mixed open-loop writer: one zipf insert every
// 1/writeRate seconds from start, each sent when due (or at once when the
// previous one ran late) and timed from its due time.
func (b *bench) writeLoop(start time.Time, stop <-chan struct{}) {
	interval := time.Second / writeRate
	var body []byte
	for k := 0; k < cap(b.wlog.due); k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			return
		default:
		}
		sent := time.Now()
		v := b.writes.next()
		b.truth.append(v)
		body = append(body[:0], `{"inserts":[{"value":`...)
		body = strconv.AppendInt(body, int64(v), 10)
		body = append(body, `,"count":1}]}`...)
		var ack int64
		b.attempted.Add(1)
		req, err := http.NewRequest(http.MethodPost, b.st.front+"/ingest", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			_, _, _, err = b.do(&b.writer, req, "client.write")
		}
		if err != nil {
			b.fail("POST /ingest value %d: %v", v, err)
		} else {
			ack = int64(time.Since(b.epoch))
		}
		b.wlog.due = append(b.wlog.due, int64(due.Sub(b.epoch)))
		b.wlog.sent = append(b.wlog.sent, int64(sent.Sub(b.epoch)))
		b.wlog.ack = append(b.wlog.ack, ack)
	}
}

// writeStats summarizes the writes due inside w: acknowledged latency
// from due time, how late the writer sent, and how long until the reader
// first saw each write's version. Call after the writer and reader stop.
func (b *bench) writeStats(w *window) (lat, late, lag []float64) {
	lo, hi := int64(w.start.Sub(b.epoch)), int64(w.end.Sub(b.epoch))
	for k, due := range b.wlog.due {
		if due < lo || due >= hi || b.wlog.ack[k] == 0 {
			continue
		}
		lat = append(lat, float64(b.wlog.ack[k]-due))
		late = append(late, float64(b.wlog.sent[k]-due))
		version := b.truth.v0 + int64(k) + 1
		i := sort.Search(len(b.seen), func(i int) bool { return b.seen[i].version >= version })
		if i < len(b.seen) {
			lag = append(lag, math.Max(0, float64(b.seen[i].at-b.wlog.ack[k])))
		}
	}
	return lat, late, lag
}

// heapMB is the live heap after a forced collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

var calibSink uint64

// calibrate times a fixed xorshift spin: a host-speed reading taken
// before and after each run, independent of the program.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// optFloat decodes a JSON number that may be null (an unbounded answer)
// without allocating.
type optFloat struct {
	v  float64
	ok bool
}

func (o *optFloat) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*o = optFloat{}
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return err
	}
	*o = optFloat{v: v, ok: true}
	return nil
}

// verdict checks one budgeted answer against ground truth; "" means
// correct. Every answer must carry a bound within its budget, lie within
// that bound, and equal the truth exactly when the bound is zero.
func verdict(value float64, bound optFloat, exact int64, maxErr float64) string {
	ex := float64(exact)
	switch {
	case !bound.ok:
		return "answer carries no error bound"
	case bound.v > maxErr*(1+1e-9):
		return "bound exceeds the requested maxerr"
	case bound.v == 0 && value != ex:
		return "exact-path value differs from ground truth"
	case math.Abs(value-ex) > bound.v*(1+1e-9)+1e-9:
		return "value outside its certified bound"
	}
	return ""
}

// truthLog is ingest-mixed's ground truth: the generated counts plus the
// writer's inserts in send order. With one writer the engine bumps its
// version once per insert, so version v0+k holds exactly the first k.
type truthLog struct {
	mu     sync.Mutex
	values []int32
	v0     int64

	// Reader-owned: counts and prefix sums at version curV.
	cur    []int64
	prefix []int64
	curV   int64
}

func newTruthLog(counts []int64, capacity int) *truthLog {
	return &truthLog{
		values: make([]int32, 0, capacity),
		cur:    append([]int64(nil), counts...),
		prefix: prefixSums(counts),
	}
}

func (t *truthLog) start(v0 int64) { t.v0, t.curV = v0, v0 }

func (t *truthLog) append(v int) {
	t.mu.Lock()
	t.values = append(t.values, int32(v))
	t.mu.Unlock()
}

// at returns the prefix sums at version v; versions a single reader sees
// never go back.
func (t *truthLog) at(v int64) ([]int64, error) {
	if v == t.curV {
		return t.prefix, nil
	}
	if v < t.curV {
		return nil, fmt.Errorf("version went back from %d to %d", t.curV, v)
	}
	t.mu.Lock()
	n := int(v - t.v0)
	if n > len(t.values) {
		t.mu.Unlock()
		return nil, fmt.Errorf("version %d is ahead of the %d inserts sent", v, len(t.values))
	}
	for _, val := range t.values[t.curV-t.v0 : n] {
		t.cur[val]++
	}
	t.mu.Unlock()
	for i, c := range t.cur {
		t.prefix[i+1] = t.prefix[i] + c
	}
	t.curV = v
	return t.prefix, nil
}

// relHist is a log-bucketed distribution of relative errors (100 buckets
// per decade from 1e-9), with exact answers counted apart.
type relHist struct {
	zero, over, n int64
	counts        [1200]int64
}

const relLo = -9.0 // log10 of the first bucket's lower edge

func (h *relHist) add(x float64) {
	h.n++
	if x == 0 {
		h.zero++
		return
	}
	i := int(math.Floor((math.Log10(x) - relLo) * 100))
	switch {
	case i < 0:
		i = 0
	case i >= len(h.counts):
		h.over++
		return
	}
	h.counts[i]++
}

// median interpolates the middle rank inside its bucket (log scale).
func (h *relHist) median() float64 {
	rank := float64(h.n) / 2
	cum := float64(h.zero)
	if h.n == 0 || cum >= rank {
		return 0
	}
	for i, c := range h.counts {
		if c > 0 && cum+float64(c) >= rank {
			f := (rank - cum) / float64(c)
			return math.Pow(10, relLo+(float64(i)+f)/100)
		}
		cum += float64(c)
	}
	return math.Inf(1)
}

// quantile interpolates the q-quantile of an unsorted sample (sorting a
// copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func floats(lat []uint32) []float64 {
	out := make([]float64, len(lat))
	for i, ns := range lat {
		out[i] = float64(ns)
	}
	return out
}

// sliceStats are the window's latency quantiles (ns) and answer rate
// (1/s) from its fastest complete slices: the 10th percentile of the
// slice p50s and p99s and the 90th of the slice rates. A window shorter
// than one slice is one slice.
func (w *window) sliceStats() (p50, p99, rate float64) {
	n := int(w.end.Sub(w.start) / sliceLen)
	if n == 0 {
		return quantile(floats(w.lat), .5), quantile(floats(w.lat), .99), float64(w.answers) / w.end.Sub(w.start).Seconds()
	}
	var p50s, p99s, rates []float64
	for k := 0; k < n; k++ {
		if k >= len(w.cuts) {
			// Nothing completed in this slice: a stall at least a slice long.
			p50s, p99s, rates = append(p50s, float64(sliceLen)), append(p99s, float64(sliceLen)), append(rates, 0)
			continue
		}
		hi := len(w.lat)
		if k+1 < len(w.cuts) {
			hi = w.cuts[k+1]
		}
		xs := floats(w.lat[w.cuts[k]:hi])
		if len(xs) == 0 {
			xs = []float64{float64(sliceLen)}
		}
		p50s = append(p50s, quantile(xs, .5))
		p99s = append(p99s, quantile(xs, .99))
		rates = append(rates, float64(w.sliceAns[k])/sliceLen.Seconds())
	}
	w.sliceP50s = p50s
	return quantile(p50s, .1), quantile(p99s, .1), quantile(rates, .9)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

var errNoReads = errors.New("the reader completed no request in the window")
