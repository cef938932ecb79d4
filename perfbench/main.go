// Command perfbench is SpotLake's benchmark. It generates a seeded
// archive, serves it with the real stack (tsdb store, archive service,
// admission, net/http on loopback), drives one named workload against it
// from this process over at most GOMAXPROCS keep-alive connections,
// checks every sampled answer against the seed, and prints its metrics
// as one JSON object on the last line of standard output.
//
//	perfbench --workload popular-reads --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the same workload and prints the per-layer metrics
// instead, from spans the benchmark records around each layer's calls;
// the spans are written as JSON lines under --work. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/tsdb"
)

// workload is one traffic mix over one generated archive. Rates are
// constants of the benchmark, never adapted to a run.
type workload struct {
	name string
	// series and ticks size the archive set-up writes.
	series, ticks int
	// setups is how many times an untraced run sets up; setup_s is the
	// median.
	setups int
	// history selects the history sampler instead of the dashboard one.
	history bool
	// readRate is the open loop's offered rate, req/s.
	readRate float64
	// warm is how many requests run before anything is timed.
	warm int
}

var workloads = []workload{
	{
		name: "popular-reads", series: 1024, ticks: 900, setups: 2,
		readRate: 1200, warm: 400,
	},
	{
		name: "history-scan", series: 1150, ticks: 9000, setups: 1, history: true,
		readRate: 800, warm: 200,
	},
}

const (
	// genLateBound invalidates a run whose generator itself sent late:
	// its p99 lateness past this says the loop, not the system, lagged.
	genLateBound = 50 * time.Millisecond
	// captureEvery keeps one arrival in this many for checking.
	captureEvery = 8
	// replayMax caps the arrivals the traced replay runs at each depth.
	replayMax = 1000
)

// Seed streams: each draw has its own, so changing one phase never
// shifts another's inputs.
const (
	streamWarm = iota + 1
	streamCapacity
	streamOpen
	streamSchedule
	streamRecover
	streamTracedSchedule
	streamTracedOpen
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	work     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "seed the archive and every request are drawn from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed open-loop phase")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for the store and the span file")
	flag.Parse()
	o.trace = trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s) and --seconds >= 1\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run performs one run of w and returns its report. An error means the
// run could not be carried out; a failed check yields Correct false.
func run(w *workload, o options) (*report, error) {
	conns := runtime.GOMAXPROCS(0)
	cat := catalog.Standard()
	m := newModel(cat, o.seed, w.series)
	dir := filepath.Join(o.work, "data-"+w.name)
	defer os.RemoveAll(dir)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	bad := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	correct := true

	// Each phase's wall time goes to standard error.
	var phases []string
	last := time.Now()
	lap := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %.1fs", name, time.Since(last).Seconds()))
		last = time.Now()
	}
	// Set-up: generate, load, seal, serve.
	setups := w.setups
	if o.trace {
		setups = 1
	}
	heap0 := liveHeap()
	var st *stack
	var setupS []float64
	for range setups {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = setUp(dir, cat, m, w.ticks, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		tr.record("setup", 0, -1, 0, t0, time.Now())
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	lap("setup")
	db := st.db
	points := float64(db.PointCount())
	heapPerPoint := float64(liveHeap()-heap0) / points
	disk, err := diskBytes(dir)
	if err != nil {
		return nil, err
	}
	if float64(st.ing.points) != points {
		correct = false
		bad("set-up stored %v points, acknowledged %d", points, st.ing.points)
	}
	coldPoints := db.ColdPointCount()
	if w.history && coldPoints*16 < 2*tsdb.DefaultBlockCacheBytes {
		return nil, fmt.Errorf("history archive too small: %d cold points decode to less than twice the block cache", db.ColdPointCount())
	}
	lastTick := w.ticks - 1
	newSampler := func(stream uint64) sampler {
		if w.history {
			return newHistorySampler(m, lastTick, o.seed, stream)
		}
		return newPopularSampler(m, lastTick, o.seed, stream)
	}
	cl := newClient(st.url, conns)
	defer cl.close()

	// Let the set-up's write-back finish before anything is timed.
	syscall.Sync()
	lap("size")
	// Warm-up, closed loop: caches fill and lazy set-up finishes.
	warm := newSampler(streamWarm)
	warmUp := func(until time.Time) error {
		for i := 0; i < w.warm || time.Now().Before(until); i++ {
			if res, _ := cl.do(warm.next(), time.Now(), false, ""); !res[len(res)-1].ok {
				return fmt.Errorf("warm-up request failed")
			}
		}
		return nil
	}
	if err := warmUp(time.Time{}); err != nil {
		return nil, err
	}
	lap("warm")

	// Capacity: conns closed-loop connections back to back, in bursts
	// spread over the run's rounds (see capacityRounds).
	var capMu sync.Mutex
	capSampler := newSampler(streamCapacity)
	var capResults []result
	var capRates []float64
	capacityBurst := func() {
		start := time.Now()
		res := runClosedLoop(capacityBurstLen, conns, func(_, _ int, due time.Time) []result {
			capMu.Lock()
			r := capSampler.next()
			capMu.Unlock()
			out, _ := cl.do(r, due, false, "")
			return out
		})
		capResults = append(capResults, res...)
		ok := 0
		for _, r := range res {
			if r.ok {
				ok++
			}
		}
		capRates = append(capRates, float64(ok)/time.Since(start).Seconds())
	}

	// Open loop at the workload's fixed rate. A traced run follows it with
	// a second loop over fresh draws whose every request is traced: the
	// server records a span inside the time the client measures. The
	// layer deltas come from the run's last loop. Nothing writes during
	// either.
	var (
		keptMu         sync.Mutex
		keep           []kept
		adm0, adm1     archive.AdmissionStats
		cache0, cache1 archive.CacheStats
		bc0, bc1       tsdb.BlockCacheStats
	)
	openLoop := func(schedStream, reqStream uint64, traced bool) ([]*request, openLoopStats) {
		offsets := schedule(w.readRate, time.Duration(o.seconds)*time.Second, o.seed, schedStream)
		smp := newSampler(reqStream)
		reqs := make([]*request, len(offsets))
		for i := range reqs {
			reqs[i] = smp.next()
		}
		adm0, cache0, bc0 = st.adm.Stats(), st.svc.CacheStats(), db.BlockCacheStats()
		stats := runOpenLoop(offsets, conns, func(_, i int, due time.Time) []result {
			k := kept{req: reqs[i], lastTick: st.ing.next - 1}
			trace := ""
			if traced {
				trace = strconv.Itoa(i)
			}
			res, bodies := cl.do(reqs[i], due, i%captureEvery == 0, trace)
			if traced {
				for p, r := range res {
					tr.record("client", 0, i, p, due, due.Add(r.lat))
				}
			}
			if bodies != nil {
				k.bodies = bodies
				keptMu.Lock()
				keep = append(keep, k)
				keptMu.Unlock()
			}
			return res
		})
		adm1, cache1, bc1 = st.adm.Stats(), st.svc.CacheStats(), db.BlockCacheStats()
		return reqs, stats
	}
	points0, cp0 := db.PointCount(), db.MaintenanceStats().Checkpoints
	reqs, open := openLoop(streamSchedule, streamOpen, false)
	var tracedOpen openLoopStats
	if o.trace {
		reqs, tracedOpen = openLoop(streamTracedSchedule, streamTracedOpen, true)
	}
	if db.PointCount() != points0 {
		correct = false
		bad("the store gained %d points during the reads", db.PointCount()-points0)
	}
	lap("open")

	// Rounds: a capacity burst each, then a share of the run's timed
	// collection ticks, so a slow stretch of the machine lands in a few
	// rounds of each, not in all of one.
	var ticks tickStats
	for r := range capacityRounds {
		capacityBurst()
		runtime.GC() // the burst's garbage is collected before the ticks, not during them
		chunk, err := writeTicks(st.ing, ingestRate, ticksPerRound, r*ticksPerRound, tr)
		if err != nil {
			return nil, err
		}
		ticks.merge(chunk)
	}
	maintCheckpoints := db.MaintenanceStats().Checkpoints - cp0
	lap("rounds")
	capOK := 0
	for _, r := range capResults {
		if r.ok {
			capOK++
		}
	}

	// Per-layer replay, traced runs only.
	var rs replayStats
	if o.trace {
		n := min(len(reqs), replayMax)
		if rs, err = replay(db, cat, reqs[:n], tr); err != nil {
			return nil, err
		}
	}

	lap("replay")
	// Checks against the seed.
	for _, k := range keep {
		if err := m.check(k); err != nil {
			correct = false
			bad("%v", err)
			break
		}
	}
	if n := db.ColdReadErrors(); n != 0 {
		correct = false
		bad("%d cold read errors", n)
	}

	lap("check")
	// Restart: close, reopen, and read back.
	rec, err := restart(st, m, o.seed)
	if err != nil {
		return nil, err
	}
	db = st.db
	for _, p := range rec.problems {
		correct = false
		bad("%s", p)
	}

	lap("recover")
	fmt.Fprintf(os.Stderr, "perfbench: phases: %s\n", strings.Join(phases, ", "))
	// Open-loop summary. Every loop's generator must have kept up.
	readMs, failed, lateMs := summarize(open)
	tracedMs, tracedFailed, tracedLateMs := summarize(tracedOpen)
	failed += tracedFailed
	lateP99 := max(percentile(lateMs, 99), percentile(tracedLateMs, 99))
	if lateP99 > float64(genLateBound)/float64(time.Millisecond) {
		correct = false
		bad("generator lagged: p99 %.2f ms behind schedule, bound %v", lateP99, genLateBound)
	}
	if !supports(99, len(readMs)) || !supports(99, len(ticks.latMs)) {
		correct = false
		bad("too few samples for p99: %d reads, %d ticks", len(readMs), len(ticks.latMs))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d points (%d cold), %d reads (p50 %.2f ms, tail p%g), %d ticks (tail p%g), %d checked, capacity %d ok, generator late p50 %.2f ms p99 %.2f ms, backlog max %d, checkpoints %d\n",
		w.name, o.seed, int(points), coldPoints, len(readMs), chunkedPercentile(readMs, 50, chunkSize), tailPercentile(len(readMs)), len(ticks.latMs), tailPercentile(len(ticks.latMs)),
		len(keep), capOK, percentile(lateMs, 50), lateP99, max(open.backlogMax, tracedOpen.backlogMax), maintCheckpoints)
	fmt.Fprintf(os.Stderr, "perfbench: capacity bursts %.0f req/s; round tick medians %.2f ms; restarts %.3f s\n",
		capRates, chunkFigures(ticks.latMs, 50, ticksPerRound), rec.seconds)

	rep := &report{
		Correct:   correct,
		Attempted: len(open.results) + len(tracedOpen.results) + len(capResults) + len(ticks.latMs),
		Failed:    failed + len(capResults) - capOK,
		Metrics:   map[string]metric{},
	}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	if !o.trace {
		// Timed figures are medians over the run's rounds and restarts:
		// see README.md, "Measured noise".
		put("setup_s", median(setupS), "s")
		put("capacity_rps", median(capRates), "req/s")
		put("ok_share", 1-ratio(float64(failed), float64(len(open.results))), "ratio")
		put("ingest_p50_ms", chunkedPercentile(ticks.latMs, 50, ticksPerRound), "ms")
		put("recover_s", median(rec.seconds), "s")
		put("disk_bytes_per_point", float64(disk)/points, "B")
		put("heap_bytes_per_point", heapPerPoint, "B")
		return rep, nil
	}
	// Read latency and the tails come from the traced run's untraced
	// loop: see README.md for why they are not end-to-end metrics.
	readP50 := chunkedPercentile(readMs, 50, chunkSize)
	put("read_p50_ms", readP50, "ms")
	put("read_p99_ms", chunkedPercentile(readMs, 99, chunkSize), "ms")
	put("ingest_p99_ms", percentile(ticks.latMs, 99), "ms")
	put("failed_share", ratio(float64(failed), float64(len(open.results)+len(tracedOpen.results))), "ratio")
	put("archive.http.handler_p50_us", percentile(rs.handler.flat(), 50), "us")
	put("archive.http.handler_p99_us", percentile(rs.handler.flat(), 99), "us")
	put("archive.http.self_p50_us", median(rs.handler.self(rs.service)), "us")
	put("archive.http.resp_bytes_per_req", ratio(float64(rs.respBytes), float64(rs.pages)), "B")
	put("archive.admission.admitted", float64(adm1.Admitted-adm0.Admitted), "count")
	put("archive.admission.shed", float64(adm1.Shed-adm0.Shed), "count")
	put("archive.admission.throttled", float64(adm1.Throttled-adm0.Throttled), "count")
	put("archive.query.p50_us", percentile(rs.service.flat(), 50), "us")
	put("archive.query.p99_us", percentile(rs.service.flat(), 99), "us")
	put("archive.query.self_p50_us", median(rs.service.self(rs.store)), "us")
	hits, misses := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	put("archive.cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("archive.cache.coalesced", float64(cache1.Coalesced-cache0.Coalesced), "count")
	put("archive.cache.invalidations", float64(cache1.Invalidations-cache0.Invalidations), "count")
	put("tsdb.read.p50_us", percentile(rs.store.flat(), 50), "us")
	put("tsdb.read.p99_us", percentile(rs.store.flat(), 99), "us")
	put("tsdb.read.scanned_per_returned", ratio(float64(rs.scanned), float64(rs.returned)), "ratio")
	bh, bm := float64(bc1.Hits-bc0.Hits), float64(bc1.Misses-bc0.Misses)
	put("tsdb.blockcache.hit_ratio", ratio(bh, bh+bm), "ratio")
	put("tsdb.blockcache.misses", bm, "count")
	put("tsdb.blockcache.evictions", float64(bc1.Evictions-bc0.Evictions), "count")
	put("tsdb.append.p50_us", percentile(ticks.appendUs, 50), "us")
	put("tsdb.append.p99_us", percentile(ticks.appendUs, 99), "us")
	put("tsdb.flush.p50_us", percentile(ticks.flushUs, 50), "us")
	put("tsdb.flush.p99_us", percentile(ticks.flushUs, 99), "us")
	put("tsdb.wal.bytes_per_point", ratio(float64(ticks.walBytes), float64(ticks.walPoints)), "B")
	put("tsdb.checkpoint.s", st.checkpoint.Seconds(), "s")
	put("tsdb.maintain.checkpoints", float64(maintCheckpoints), "count")
	put("tsdb.seal.bytes_per_cold_point", ratio(float64(db.ColdCompressedBytes()), float64(db.ColdPointCount())), "B")
	put("tsdb.open.replayed_wal_bytes", float64(rec.replayed), "B")
	put("gen.late_p99_ms", lateP99, "ms")
	put("gen.backlog_max", float64(max(open.backlogMax, tracedOpen.backlogMax)), "count")
	put("trace.overhead_ms", chunkedPercentile(tracedMs, 50, chunkSize)-readP50, "ms")
	spans := filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
	if err := tr.write(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}

// summarize returns an open loop's latencies in milliseconds, failed
// requests as +Inf, its failure count and the generator's lateness.
func summarize(st openLoopStats) (latMs []float64, failed int, lateMs []float64) {
	for _, r := range st.results {
		latMs = append(latMs, ms(r.lat, r.ok))
		if !r.ok {
			failed++
		}
	}
	for _, d := range st.late {
		lateMs = append(lateMs, float64(d)/float64(time.Millisecond))
	}
	return latMs, failed, lateMs
}

// restarts is how many times a run closes and reopens its store;
// recover_s is the median.
const restarts = 12

// After the open loop a run measures capacity in capacityRounds bursts
// of capacityBurstLen each and writes its timed ticks in equal shares
// between them. capacity_rps is the median of the bursts' rates and
// ingest_p50_ms the median of the rounds' tick medians.
const (
	capacityRounds   = 12
	capacityBurstLen = time.Second
	// ticksPerRound makes the timed ticks at least 1,000, so their p99
	// has minBeyond samples beyond it.
	ticksPerRound = 84
)

// ingestRate paces the timed collection ticks, so each tick's fsync
// meets a drained disk queue, as a collector's tick every 10 minutes
// does; back to back, ticks queue their fsyncs behind each other.
const ingestRate = 200

// ms converts a latency to milliseconds; a failed request is +Inf, so it
// misses any limit.
func ms(d time.Duration, ok bool) float64 {
	if !ok {
		return math.Inf(1)
	}
	return float64(d) / float64(time.Millisecond)
}

// restartStats is what the restart phase measured and found.
type restartStats struct {
	seconds  []float64
	replayed uint64
	problems []string
}

// restart closes and reopens st's store restarts times. The reopened
// store must hold every acknowledged point and read sampled windows back
// as they read before, and as the seed says.
func restart(st *stack, m *model, seed uint64) (restartStats, error) {
	var rs restartStats
	probes := recoverProbes(m, st.ing.next-1, seed)
	before, err := readProbes(st.db, m, probes)
	if err != nil {
		return rs, err
	}
	for range restarts {
		runtime.GC() // each restart starts from the same collected heap
		d, err := st.reopen()
		if err != nil {
			return rs, err
		}
		rs.seconds = append(rs.seconds, d.Seconds())
	}
	rs.replayed = st.db.ReplayedWALBytes()
	if got := st.db.PointCount(); int64(got) != st.ing.points {
		rs.problems = append(rs.problems, fmt.Sprintf("after restart the store holds %d points, %d were acknowledged", got, st.ing.points))
	}
	after, err := readProbes(st.db, m, probes)
	if err != nil {
		return rs, err
	}
	for i, p := range probes {
		want := m.points(p.series, p.from, p.to)
		if !equalPoints(before[i], want) || !equalPoints(after[i], want) {
			rs.problems = append(rs.problems, fmt.Sprintf("window %d of %v differs across the restart or from the seed", i, m.series[p.series].key))
		}
	}
	if n := st.db.ColdReadErrors(); n != 0 {
		rs.problems = append(rs.problems, fmt.Sprintf("%d cold read errors after restart", n))
	}
	return rs, nil
}

// probe is a raw window read before and after the restart.
type probe struct{ series, from, to int }

func recoverProbes(m *model, lastTick int, seed uint64) []probe {
	h := newHistorySampler(m, lastTick, seed, streamRecover)
	var out []probe
	for range 4 {
		i := h.rng.IntN(len(m.series))
		from := h.rng.IntN(lastTick + 1)
		out = append(out, probe{i, from, min(from+288, lastTick)})
	}
	// The newest points too: they live in the WAL tail, not a block.
	out = append(out, probe{0, max(lastTick-50, 0), lastTick})
	sort.Slice(out, func(i, j int) bool { return out[i].series < out[j].series })
	return out
}

func readProbes(db *tsdb.DB, m *model, probes []probe) ([][]tsdb.Point, error) {
	out := make([][]tsdb.Point, len(probes))
	for i, p := range probes {
		pts, err := db.Query(m.series[p.series].key, tickTime(p.from), tickTime(p.to))
		if err != nil {
			return nil, fmt.Errorf("probe read: %w", err)
		}
		out[i] = pts
	}
	return out, nil
}

func equalPoints(a, b []tsdb.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].At.Equal(b[i].At) || a[i].Value != b[i].Value {
			return false
		}
	}
	return true
}

// tickStats is what a run's collection measured.
type tickStats struct {
	latMs             []float64
	appendUs, flushUs []float64
	walBytes          int64
	walPoints         int64
}

func (s *tickStats) add(lat, app, fl time.Duration) {
	s.latMs = append(s.latMs, float64(lat)/float64(time.Millisecond))
	s.appendUs = append(s.appendUs, float64(app)/float64(time.Microsecond))
	s.flushUs = append(s.flushUs, float64(fl)/float64(time.Microsecond))
}

// merge appends o's ticks to s.
func (s *tickStats) merge(o tickStats) {
	s.latMs = append(s.latMs, o.latMs...)
	s.appendUs = append(s.appendUs, o.appendUs...)
	s.flushUs = append(s.flushUs, o.flushUs...)
	s.walBytes += o.walBytes
	s.walPoints += o.walPoints
}

// writeTicks writes n ticks at rate ticks/s and returns what they
// measured; first numbers the ticks in the trace. A tick that falls
// behind schedule runs as soon as the previous one returns, so a slow
// store cannot shrink the sample. A tick's latency is its own append
// and flush, what the collector waits for each interval.
func writeTicks(g *ingester, rate float64, n, first int, tr *tracer) (tickStats, error) {
	var s tickStats
	wal0, pts0 := g.walBytes, g.walPoints
	start := time.Now()
	for i := range n {
		g.prepare()
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		app, fl, err := g.tick(true)
		if err != nil {
			return s, err
		}
		end := time.Now()
		s.add(app+fl, app, fl)
		parent := tr.record("collect.tick", 0, first+i, 0, due, end)
		tr.record("tsdb.append", parent, first+i, 0, t0, t0.Add(app))
		tr.record("tsdb.flush", parent, first+i, 0, t0.Add(app), t0.Add(app+fl))
	}
	s.walBytes, s.walPoints = g.walBytes-wal0, g.walPoints-pts0
	return s, nil
}
