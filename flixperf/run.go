package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	flix "repro"
)

const (
	setups     = 3 // deployments per run; setup_s is their median
	warmup     = 1500 * time.Millisecond
	openShare  = 0.6 // of --seconds; the closed loop gets the rest
	healthWait = 60 * time.Second
)

type runner struct {
	w       workload
	seed    int64
	seconds time.Duration
	bin     string
	work    string
	procs   *procSet
	traced  bool

	spans  spanLog
	corp   *corpus
	seq    *sequence
	client *http.Client

	serving []*proc // the flixd the load generator talks to
	gen     *loadGen
	cpu0    []float64 // cpuTimes when the measured phases began
	quiet   map[string]any
	// closedStats is the closed loop's time, CPU use, raw throughput and
	// host probe readings.
	closedStats map[string]any
	setupS      []float64
}

// prepare builds the corpus, the oracle and the request sequence.
func (r *runner) prepare() error {
	if err := os.RemoveAll(r.work); err != nil {
		return err
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return err
	}
	c := &corpus{dir: filepath.Join(r.work, "corpus")}
	root := r.spans.begin("prepare", 0)
	sp := r.spans.begin("dblpgen", root)
	if err := generate(r.bin, c.dir, corpusSeed); err != nil {
		return err
	}
	r.spans.end(sp, nil)
	sp = r.spans.begin("NewLoader().LoadDir", root)
	coll, err := load(c.dir)
	if err != nil {
		return err
	}
	r.spans.end(sp, map[string]any{"documents": coll.NumDocs(), "elements": coll.NumNodes(), "links": coll.NumLinks()})
	c.coll = coll
	c.roots = documentRoots(coll)
	if r.w.snapshot {
		sp = r.spans.begin("Build", root)
		ix, err := flix.Build(coll, hopiConfig())
		if err != nil {
			return err
		}
		r.spans.end(sp, map[string]any{"config": "unconnected-hopi/5000"})
		c.snapshot = filepath.Join(r.work, snapshotFn)
		sp = r.spans.begin("WriteSnapshotV2With", root)
		if c.snapBytes, err = writeSnapshot(ix, c.snapshot); err != nil {
			return err
		}
		r.spans.end(sp, map[string]any{"compress": true, "bytes": c.snapBytes})
	}
	r.corp = c
	// Enough requests for warm-up, the open loop and a closed loop at up
	// to eight times the offered rate; the closed loop wraps beyond that.
	n := int(r.w.rate*(warmup.Seconds()+r.seconds.Seconds())*8) + 1000
	n = min(n, maxReqSeq)
	sp = r.spans.begin("oracle", root)
	seq, err := buildSequence(r.w, c, r.seed, n)
	if err != nil {
		return err
	}
	r.spans.end(sp, map[string]any{"requests": n, "reachSets": seq.reaches})
	r.seq = seq
	r.spans.end(root, nil)
	return nil
}

// deploy starts the workload's flixd and returns the time from process
// start to its first 200 from /healthz: XML parse plus index build, or
// XML parse plus snapshot open.
func (r *runner) deploy(i int) (time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return 0, err
	}
	args := []string{"-addr", addr, "-dir", r.corp.dir}
	if r.w.snapshot {
		args = append(args, "-load", r.corp.snapshot)
	}
	t0 := time.Now()
	p, err := r.procs.start("flixd", filepath.Join(r.bin, "flixd"), addr, r.logPath("flixd", i), args...)
	if err != nil {
		return 0, err
	}
	if err := waitHealthy(r.client, p, healthWait); err != nil {
		return 0, err
	}
	r.serving = []*proc{p}
	return time.Since(t0), nil
}

func (r *runner) logPath(name string, i int) string {
	return filepath.Join(r.work, fmt.Sprintf("%s-%d.log", name, i))
}

// cluster is flixd-router in front of flixd shards.
type cluster struct {
	shards []*proc
	router *proc
	setup  time.Duration
}

// deployCluster starts the shards together and the router once both are
// ready, so the router's topology bootstrap is timed apart from the shard
// builds; setup is the sum of the two waits.
func (r *runner) deployCluster(n int) (*cluster, error) {
	cl := &cluster{}
	var urls []string
	t0 := time.Now()
	for s := 0; s < n; s++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := r.procs.start(fmt.Sprintf("flixd-shard%d", s), filepath.Join(r.bin, "flixd"), addr,
			r.logPath(fmt.Sprintf("shard%d", s), 0),
			"-addr", addr, "-dir", r.corp.dir, "-shard-id", fmt.Sprint(s), "-shard-count", fmt.Sprint(n))
		if err != nil {
			return nil, err
		}
		cl.shards = append(cl.shards, p)
		urls = append(urls, p.url)
	}
	for _, p := range cl.shards {
		if err := waitHealthy(r.client, p, healthWait); err != nil {
			return nil, err
		}
	}
	cl.setup = time.Since(t0)
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rt, err := r.procs.start("flixd-router", filepath.Join(r.bin, "flixd-router"), addr, r.logPath("router", 0),
		"-addr", addr, "-dir", r.corp.dir, "-shards", strings.Join(urls, ","))
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(r.client, rt, healthWait); err != nil {
		return nil, err
	}
	cl.router = rt
	cl.setup += time.Since(t1)
	return cl, nil
}

// setup deploys the workload several times, keeping the last deployment
// for the load.
func (r *runner) setup() error {
	for i := 0; i < setups; i++ {
		if i > 0 {
			r.procs.stopSome(r.serving)
		}
		sp := r.spans.begin("deploy", 0)
		d, err := r.deploy(i)
		if err != nil {
			return err
		}
		r.spans.end(sp, map[string]any{"setup_s": d.Seconds()})
		r.setupS = append(r.setupS, d.Seconds())
	}
	return nil
}

func (r *runner) run() (*result, error) {
	r.spans.start()
	r.client = newClient()
	if err := r.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	g := &loadGen{base: r.serving[0].url, client: r.client, coll: r.corp.coll, seq: r.seq}
	r.gen = g
	sp := r.spans.begin("warmup", 0)
	warm := g.closedLoop(warmup)
	r.spans.end(sp, map[string]any{"requests": len(warm)})
	r.cpu0 = cpuTimes()
	if r.traced {
		return r.tracedRun(g)
	}

	sp = r.spans.begin("open-loop", 0)
	meter := startStealMeter(time.Now())
	open := g.openLoop(r.w.rate, time.Duration(float64(r.seconds)*openShare))
	oq := meter.finish()
	r.spans.end(sp, map[string]any{"requests": len(open), "rate": r.w.rate})
	sp = r.spans.begin("closed-loop", 0)
	meter = startStealMeter(time.Now())
	srv0, self0 := cpuSeconds(r.serving[0].cmd.Process.Pid), cpuSeconds(os.Getpid())
	cl := closedPhase(g, r.seconds-time.Duration(float64(r.seconds)*openShare))
	closed, closedS := cl.outs, cl.busy
	cq := meter.finish()
	r.closedStats = map[string]any{
		"seconds": closedS, "probes": cl.probes,
		"serverCPUSeconds":  cpuSeconds(r.serving[0].cmd.Process.Pid) - srv0,
		"loadgenCPUSeconds": cpuSeconds(os.Getpid()) - self0,
	}
	r.spans.end(sp, map[string]any{"requests": len(closed)})
	r.quiet = map[string]any{
		"share": quietShare, "openSteal": oq.steal, "openKeptSteal": oq.keptSteal(),
		"closedSteal": cq.steal,
	}
	inOpen := func(o outcome) bool { return oq.has(o.at.Add(-o.late)) }
	log.Printf("prepare %.2fs, setups %v, open loop %d requests (quiet slots: %s), closed loop %d requests",
		r.spans.seconds("prepare"), r.setupS, len(open), opSummary(open, inOpen), len(closed))

	res := &result{Correct: true, Metrics: map[string]metric{}}
	all := append(append([]outcome(nil), open...), closed...)
	res.Attempted = len(all)
	for _, o := range all {
		if !o.ok {
			res.Failed++
		}
	}
	m := res.Metrics
	m["setup_s"] = metric{median(r.setupS), "s"}
	// Throughput counts the whole closed loop and is divided by the median
	// host speed the probes read (probe.go): its noise is the host's speed
	// drifting over minutes, which no choice of slots removes, and keeping
	// only some slots added the luck of which heavy requests fell in them.
	okClosed, results := 0, 0
	for _, o := range closed {
		if o.ok {
			okClosed++
			results += o.results
		}
	}
	speed := median(cl.probes)
	r.closedStats["qps"], r.closedStats["resultsPerS"] = float64(okClosed)/closedS, float64(results)/closedS
	r.closedStats["hostSpeed"] = speed
	m["qps"] = metric{float64(okClosed) / closedS / speed, "req/s"}
	m["results_per_s"] = metric{float64(results) / closedS / speed, "1/s"}
	m["ok_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
	for op := opKind(0); op < numOps; op++ {
		m[opNames[op]+"_p50_ms"] = metric{ms(smoothQuantile(latencies(open, op, inOpen), 0.50)), "ms"}
	}
	rss, err := peakRSS(r.serving)
	if err != nil {
		return nil, err
	}
	m["server_rss_mb"] = metric{rss, "MB"}
	ib, err := r.indexBytes(r.serving)
	if err != nil {
		return nil, err
	}
	m["index_bytes"] = metric{ib, "B"}

	if err := r.finish(g, res, open); err != nil {
		return nil, err
	}
	return res, nil
}

// closedRun is the closed loop's measurement.
type closedRun struct {
	outs   []outcome
	busy   float64   // seconds the connections were driven
	probes []float64 // host speed after each segment
}

// closedPhase runs the closed loop for dur in segments of closedSegment,
// each followed by a host probe while the connections are idle.
func closedPhase(g *loadGen, dur time.Duration) closedRun {
	var c closedRun
	end := time.Now().Add(dur)
	for len(c.probes) == 0 || time.Until(end) >= closedSegment/2+probeLen {
		seg := max(closedSegment/2, min(closedSegment, time.Until(end)-probeLen))
		t0 := time.Now()
		c.outs = append(c.outs, g.closedLoop(seg)...)
		c.busy += time.Since(t0).Seconds()
		c.probes = append(c.probes, probeSpeed(probeLen))
	}
	return c
}

// finish records provenance and oracle rejections, and writes the spans.
func (r *runner) finish(g *loadGen, res *result, open []outcome) error {
	if wrong := g.rejections(); len(wrong) > 0 {
		res.Correct = false
		for _, w := range wrong {
			log.Printf("oracle rejected: %s", w)
		}
	}
	prov, err := r.provenance(open)
	if err != nil {
		return err
	}
	b, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", b)
	path := filepath.Join(r.work, "spans.json")
	if err := r.spans.write(path, prov); err != nil {
		return err
	}
	fmt.Printf("spans %d written to %s\n", r.spans.len(), path)
	return nil
}

// peakRSS sums the peak resident set of the given processes, in MB.
func peakRSS(procs []*proc) (float64, error) {
	var sum float64
	for _, p := range procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// statsz fetches and decodes a process's /statsz.
func (r *runner) statsz(p *proc) (map[string]any, error) {
	var out map[string]any
	resp, err := r.client.Get(p.url + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /statsz: %s", p.name, resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// indexBytes sums the index size the processes report.
func (r *runner) indexBytes(procs []*proc) (float64, error) {
	var sum float64
	for _, p := range procs {
		st, err := r.statsz(p)
		if err != nil {
			return 0, err
		}
		v, ok := lookup(st, "build", "sizeBytes").(float64)
		if !ok || v <= 0 {
			return 0, fmt.Errorf("%s /statsz: no build.sizeBytes", p.name)
		}
		sum += v
	}
	return sum, nil
}

// lookup walks nested JSON objects.
func lookup(v any, path ...string) any {
	for _, k := range path {
		m, ok := v.(map[string]any)
		if !ok {
			return nil
		}
		v = m[k]
	}
	return v
}

// latencies returns the sorted latencies of op's outcomes that keep
// accepts.
func latencies(outs []outcome, op opKind, keep func(outcome) bool) []time.Duration {
	var l []time.Duration
	for _, o := range outs {
		if o.op != op || !keep(o) {
			continue
		}
		if o.ok {
			l = append(l, o.lat)
		} else {
			l = append(l, time.Duration(math.MaxInt64)) // a failure misses every latency limit
		}
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return l
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// smoothQuantile averages the order statistics within two standard errors
// of the q-quantile's rank (±2√(n·q·(1−q)) ranks).  A single order
// statistic of a heavy tail jumps from run to run; the window average
// estimates the same quantile with a fraction of the spread.  A failure in
// the window makes the estimate infinite, as a failure misses every
// latency limit.
func smoothQuantile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	c := int(math.Ceil(q*float64(n))) - 1
	w := int(math.Ceil(2 * math.Sqrt(float64(n)*q*(1-q))))
	lo, hi := max(0, c-w), min(n-1, c+w)
	var sum float64
	for _, d := range sorted[lo : hi+1] {
		if d == time.Duration(math.MaxInt64) {
			return d
		}
		sum += float64(d)
	}
	return time.Duration(sum / float64(hi-lo+1))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// opSummary renders per-operation counts and latency quantiles for the
// progress log.
func opSummary(outs []outcome, keep func(outcome) bool) string {
	var b strings.Builder
	for op := opKind(0); op < numOps; op++ {
		l := latencies(outs, op, keep)
		fmt.Fprintf(&b, "%s n=%d p50=%.2fms p90=%.2fms p99=%.2fms; ", opNames[op], len(l),
			ms(quantile(l, 0.5)), ms(quantile(l, 0.9)), ms(quantile(l, 0.99)))
	}
	return b.String()
}
