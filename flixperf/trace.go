package main

// The traced run (--trace 1): the same request sequence, measured layer by
// layer from three sources.
//
//	(a) the benchmark's own spans around each HTTP call and around the
//	    root-package calls it replays in-process (LoadDir, Build,
//	    OpenSnapshot, Index.Descendants/ConnectedOpts,
//	    Evaluator.EvaluateTopK);
//	(b) the servers' ?trace=1 EXPLAIN summaries;
//	(c) /metrics and /statsz deltas scraped before and after each phase.
//
// The end-to-end metrics never come from this run.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	flix "repro"
)

const (
	untracedShare  = 0.6  // of --seconds: pass U, untraced open loop
	tracedShare    = 0.25 // of --seconds: pass T, ?trace=1 on every other request
	missProbes     = 100  // pass M: sequential guaranteed cache misses
	routerRequests = 300  // pass R: descendants and connected through flixd-router
	routerShards   = 2
	// reconcileBound is the share of the client-observed time by which a
	// component of the latency decomposition may go negative before the
	// reconciliation fails.
	reconcileBound = 0.25
)

// promSample is a /metrics exposition: series name with labels → value.
type promSample map[string]float64

func (r *runner) scrape(p *proc) (promSample, error) {
	resp, err := r.client.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", p.name, resp.Status)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: %q: %w", p.name, line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func delta(before, after promSample, key string) float64 { return after[key] - before[key] }

// summary is the single-node ?trace=1 EXPLAIN payload (internal/obs
// Summary), reduced to the fields the per-layer metrics use.
type summary struct {
	Elapsed  int64 `json:"elapsedNs"`
	Pops     int64 `json:"pops"`
	Entries  int64 `json:"entries"`
	DupDrops int64 `json:"dupDrops"`
	LinkHops int64 `json:"linkHops"`
	CacheHit bool  `json:"cacheHit"`
	Metas    []struct {
		Strategy string `json:"strategy"`
		Probe    int64  `json:"probeNs"`
	} `json:"metas"`
}

// clusterTrace is the router's ?trace=1 payload (internal/obs
// ClusterTrace), reduced likewise.
type clusterTrace struct {
	Elapsed int64 `json:"elapsedNs"`
	Rounds  int   `json:"rounds"`
	Partial bool  `json:"partial"`
	Shards  []struct {
		RPCs    int   `json:"rpcs"`
		RPCTime int64 `json:"rpcNs"`
	} `json:"shards"`
	Root *traceSpan `json:"spans"`
}

type traceSpan struct {
	Name     string       `json:"name"`
	Duration int64        `json:"durNs"`
	Children []*traceSpan `json:"children"`
}

// roundTime sums the durations of every "round" span: the time the router
// waited on shard RPCs, one round at a time.
func (s *traceSpan) roundTime() int64 {
	if s == nil {
		return 0
	}
	if s.Name == "round" {
		return s.Duration
	}
	var t int64
	for _, c := range s.Children {
		t += c.roundTime()
	}
	return t
}

// layerMetrics accumulates the per-layer metrics with their units.
type layerMetrics map[string]metric

func (m layerMetrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

func (r *runner) tracedRun(g *loadGen) (*result, error) {
	m := layerMetrics{}
	res := &result{Correct: true, Metrics: map[string]metric(m)}
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	front := r.serving[0]
	warmEnd := int(g.cursor.Load())

	// Pass U: untraced open loop, bracketed by /metrics and /statsz.
	mb, err := r.scrape(front)
	if err != nil {
		return nil, err
	}
	sb, err := r.statsz(front)
	if err != nil {
		return nil, err
	}
	sp := r.spans.begin("pass-U", 0)
	u := g.openLoop(r.w.rate, time.Duration(float64(r.seconds)*untracedShare))
	r.spans.end(sp, map[string]any{"requests": len(u)})
	r.httpSpans(sp, u)
	ma, err := r.scrape(front)
	if err != nil {
		return nil, err
	}
	sa, err := r.statsz(front)
	if err != nil {
		return nil, err
	}
	uEnd := int(g.cursor.Load())

	var sent [numOps]float64
	var svc [numOps]time.Duration
	var late []time.Duration
	totalBytes := 0
	for _, o := range u {
		sent[o.op]++
		svc[o.op] += o.svc
		totalBytes += o.bytes
		late = append(late, o.late)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	n := float64(len(u))
	// The latency tails of pass U.  They spread too widely between runs on
	// a host that steals CPU time to carry an end-to-end bound (see
	// README.md), so they are reported here, unbounded.
	for _, q := range []struct {
		op   opKind
		tail float64
	}{{opDesc, 0.99}, {opConn, 0.99}, {opQuery, 0.90}, {opBatch, 0.90}} {
		lats := latencies(u, q.op, func(outcome) bool { return true })
		if beyond := float64(len(lats)) * (1 - q.tail); beyond < 10 {
			return nil, fmt.Errorf("%s: %d samples leave %.1f beyond p%.0f (need 10)", opNames[q.op], len(lats), beyond, q.tail*100)
		}
		m.set(fmt.Sprintf("tail.%s_p%.0f_ms", opNames[q.op], q.tail*100), "ms", ms(smoothQuantile(lats, q.tail)))
	}
	m.set("loadgen.late_p99_ms", "ms", ms(quantile(late, 0.99)))
	m.set("server.resp_bytes", "B", float64(totalBytes)/n)
	m.set("server.shed_frac", "ratio", delta(mb, ma, "flix_requests_shed_total")/n)
	m.set("server.timeout_frac", "ratio", delta(mb, ma, "flix_request_timeouts_total")/n)
	hits, misses := delta(mb, ma, "flix_cache_hits_total"), delta(mb, ma, "flix_cache_misses_total")
	m.set("cache.hit_ratio", "ratio", ratioOf(hits, hits+misses))
	m.set("runtime.gc_per_1k_req", "count", delta(mb, ma, "go_gc_cycles_total")*1000/n)
	m.set("runtime.gc_pause_ms_per_1k_req", "ms", delta(mb, ma, "go_gc_pause_seconds_total")*1e3*1000/n)
	m.set("runtime.live_heap_mb", "MB", ma["go_memstats_heap_alloc_bytes"]/(1<<20))

	// Reconciliation 1: every request sent reached the endpoint counters.
	for op := opDesc; op <= opQuery; op++ {
		key := fmt.Sprintf("flix_requests_total{endpoint=%q}", opNames[op])
		if got := delta(mb, ma, key); got != sent[op] {
			fail("%s: sent %.0f requests, %s moved by %.0f", opNames[op], sent[op], key, got)
		}
	}
	batchDelta, _ := lookup(sa, "server", "requests", "batch").(float64)
	batchBefore, _ := lookup(sb, "server", "requests", "batch").(float64)
	if got := batchDelta - batchBefore; got != sent[opBatch] {
		fail("batch: sent %.0f requests, /statsz server.requests.batch moved by %.0f", sent[opBatch], got)
	}

	// The same requests replayed in-process through the root package, on
	// the served configuration, with a query cache mirroring the server's.
	ix, err := r.libraryIndex()
	if err != nil {
		return nil, err
	}
	lib := r.replay(ix, g.seq, warmEnd, uEnd)
	if err := ix.Close(); err != nil {
		return nil, fmt.Errorf("close the in-process index: %w", err)
	}
	m.set("flix.eval_us.descendants", "us", us(lib.mean(opDesc)))
	m.set("flix.eval_us.connected", "us", us(lib.mean(opConn)))
	m.set("query.eval_ms", "ms", ms(lib.mean(opQuery)))
	m.set("query.scans_per_query", "count", ratioOf(float64(lib.scans), float64(lib.n[opQuery])))

	// Latency decomposition: client time = HTTP overhead + server self time
	// + library evaluation.  The server's duration comes from its
	// histogram sums; a component more negative than the bound means the
	// three sources disagree.
	var clientSum, serverSum float64
	for op := opKind(0); op < numOps; op++ {
		if sent[op] == 0 {
			continue
		}
		ep := fmt.Sprintf("{endpoint=%q}", opNames[op])
		srvN := delta(mb, ma, "flix_request_duration_seconds_count"+ep)
		srv := delta(mb, ma, "flix_request_duration_seconds_sum"+ep) / srvN * 1e6 // µs
		client := us(svc[op]) / sent[op]
		self := srv - us(lib.mean(op))
		m.set("server.self_us."+opNames[op], "us", self)
		clientSum += us(svc[op])
		serverSum += srv * sent[op]
		overhead := client - srv
		for _, c := range []struct {
			name string
			v    float64
		}{{"http overhead", overhead}, {"server self time", self}} {
			if c.v < -reconcileBound*client {
				fail("%s: %s %.0fµs is below -%.0f%% of the client time %.0fµs", opNames[op], c.name, c.v, reconcileBound*100, client)
			}
		}
	}
	m.set("http.overhead_us", "us", (clientSum-serverSum)/n)

	// Pass T: the next stretch of the sequence with ?trace=1 on every other
	// request, so traced and untraced requests share the clock, the cache
	// state and the mix.
	g.traceEvery = 2
	sp = r.spans.begin("pass-T", 0)
	t := g.openLoop(r.w.rate, time.Duration(float64(r.seconds)*tracedShare))
	r.spans.end(sp, map[string]any{"requests": len(t)})
	r.httpSpans(sp, t)
	g.traceEvery = 0
	var pops, hops, drops, entries, evals, probe, elapsed float64
	probeBy := map[string]float64{}
	var tracedSvc, plainSvc [numOps][]time.Duration
	for _, o := range t {
		if o.traced {
			tracedSvc[o.op] = append(tracedSvc[o.op], o.svc)
		} else {
			plainSvc[o.op] = append(plainSvc[o.op], o.svc)
		}
		if len(o.trace) == 0 {
			continue
		}
		var s summary
		if err := json.Unmarshal(o.trace, &s); err != nil {
			return nil, fmt.Errorf("decode EXPLAIN: %w", err)
		}
		if s.CacheHit {
			continue
		}
		evals++
		pops += float64(s.Pops)
		hops += float64(s.LinkHops)
		drops += float64(s.DupDrops)
		entries += float64(s.Entries)
		elapsed += float64(s.Elapsed)
		for _, mv := range s.Metas {
			probeBy[mv.Strategy] += float64(mv.Probe)
			probe += float64(mv.Probe)
		}
	}
	m.set("flix.pops_per_query", "count", ratioOf(pops, evals))
	m.set("flix.link_hops_per_query", "count", ratioOf(hops, evals))
	m.set("flix.dup_drop_ratio", "ratio", ratioOf(drops, entries))
	m.set("pathindex.probe_us.ppo", "us", ratioOf(probeBy["ppo"], evals)/1e3)
	m.set("pathindex.probe_us.hopi", "us", ratioOf(probeBy["hopi"], evals)/1e3)
	m.set("pathindex.probe_share", "ratio", ratioOf(probe, elapsed))
	for op := opDesc; op <= opQuery; op++ {
		traced := float64(medianDuration(tracedSvc[op]))
		plain := float64(medianDuration(plainSvc[op]))
		m.set("obs.trace_overhead_frac."+opNames[op], "ratio", ratioOf(traced, plain)-1)
	}

	// Pass M: guaranteed cache misses; the engine must have evaluated
	// exactly the oracle's full answers (the server's cache evaluates a
	// miss unbounded and replays it under k).
	miss, err := r.missRequests()
	if err != nil {
		return nil, err
	}
	mb, err = r.scrape(front)
	if err != nil {
		return nil, err
	}
	mg := &loadGen{base: front.url, client: r.client, coll: r.corp.coll, seq: miss}
	sp = r.spans.begin("pass-M", 0)
	mo := mg.sequential(len(miss.reqs))
	r.spans.end(sp, map[string]any{"requests": len(mo)})
	r.httpSpans(sp, mo)
	ma, err = r.scrape(front)
	if err != nil {
		return nil, err
	}
	// The results received are min(k, full) per request, which the oracle
	// check of each response already enforces.
	var full float64
	for _, req := range miss.reqs {
		full += float64(req.desc.rs.count(req.desc.tag))
	}
	if got := delta(mb, ma, "flix_cache_misses_total"); got != float64(len(mo)) {
		fail("cache misses: sent %d fresh keys, flix_cache_misses_total moved by %.0f", len(mo), got)
	}
	if got := delta(mb, ma, "flix_engine_results_total"); got != full {
		fail("cache misses: oracle answers hold %.0f results, flix_engine_results_total moved by %.0f", full, got)
	}

	// Storage, parse and build layers.
	st, err := r.statsz(front)
	if err != nil {
		return nil, err
	}
	m.set("xmlparse.load_s", "s", r.spans.seconds("NewLoader().LoadDir"))
	m.set("storage.open_s", "s", r.spans.seconds("OpenSnapshot"))
	mapped, _ := lookup(st, "index", "storage", "mappedBytes").(float64)
	m.set("storage.mapped_mb", "MB", mapped/(1<<20))
	var raw, packed float64
	if secs, ok := lookup(st, "index", "storage", "sections").([]any); ok {
		for _, s := range secs {
			rb, _ := lookup(s, "rawBytes").(float64)
			b, _ := lookup(s, "bytes").(float64)
			if rb > 0 {
				raw += rb
				packed += b
			}
		}
	}
	m.set("storage.compress_ratio", "ratio", ratioOf(raw, packed))
	m.set("build.partition_s", "s", ma["flix_build_partition_seconds"])
	m.set("build.select_s", "s", ma["flix_build_select_seconds"])
	m.set("build.index_s", "s", ma["flix_build_index_seconds"])

	// Pass R: the shard layer, through flixd-router over two shards.
	var ro []outcome
	if r.w.rootStarts {
		var err error
		ro, err = r.routerPass(g.seq, warmEnd, m, fail)
		if err != nil {
			return nil, err
		}
	} else {
		// The router is not on this workload's path: its layer reads 0.
		m.set("shard.rounds_per_query", "count", 0)
		m.set("shard.rpcs_per_query", "count", 0)
		m.set("shard.rpc_us", "us", 0)
		m.set("shard.eval_us", "us", 0)
		m.set("shard.router_self_us", "us", 0)
		m.set("shard.partial_frac", "ratio", 0)
	}

	for _, outs := range [][]outcome{u, t, mo, ro} {
		res.Attempted += len(outs)
		for _, o := range outs {
			if !o.ok {
				res.Failed++
			}
		}
	}
	if err := r.finish(g, res, u); err != nil {
		return nil, err
	}
	for _, mgw := range mg.rejections() {
		log.Printf("oracle rejected: %s", mgw)
		res.Correct = false
	}
	for _, p := range problems {
		log.Printf("reconciliation failed: %s", p)
		res.Correct = false
	}
	if len(problems) == 0 {
		log.Printf("reconciliation passed: requests, cache-miss results and latency decomposition agree")
	}
	return res, nil
}

// httpSpans records one span per HTTP request of a pass.
func (r *runner) httpSpans(parent int, outs []outcome) {
	for _, o := range outs {
		r.spans.add("HTTP "+opNames[o.op], parent, o.at, o.svc, map[string]any{
			"seq": o.pos, "ok": o.ok, "traced": o.traced, "bytes": o.bytes, "lateUs": us(o.late)})
	}
}

// libraryIndex opens the served index in-process with the root package:
// the default Hybrid build, or the hopi-mapped snapshot memory-mapped.
func (r *runner) libraryIndex() (*flix.Index, error) {
	if r.w.snapshot {
		sp := r.spans.begin("OpenSnapshot", 0)
		ix, err := flix.OpenSnapshot(r.corp.coll, r.corp.snapshot)
		if err != nil {
			return nil, err
		}
		r.spans.end(sp, nil)
		return ix, nil
	}
	sp := r.spans.begin("Build", 0)
	ix, err := flix.Build(r.corp.coll, flix.DefaultConfig())
	if err != nil {
		return nil, err
	}
	r.spans.end(sp, map[string]any{"config": "hybrid"})
	return ix, nil
}

// libTimes holds the in-process replay's per-operation evaluation times.
type libTimes struct {
	sum   [numOps]time.Duration
	n     [numOps]int
	scans int
}

func (l *libTimes) mean(op opKind) time.Duration {
	if l.n[op] == 0 {
		return 0
	}
	return l.sum[op] / time.Duration(l.n[op])
}

// replay evaluates sequence positions [0, end) in-process; the warm-up
// prefix [0, from) only fills the cache, [from, end) is timed.
func (r *runner) replay(ix *flix.Index, seq *sequence, from, end int) *libTimes {
	cache := ix.NewQueryCache(1024)
	cache.StoreBounded = true
	lib := &libTimes{}
	root := r.spans.begin("library-replay", 0)
	discard := func(flix.Result) bool { return true }
	desc := func(it descItem) {
		cache.Descendants(it.node, it.tag, flix.Options{MaxResults: it.k}, discard)
	}
	for i := 0; i < end; i++ {
		req := &seq.reqs[i%len(seq.reqs)]
		t0 := time.Now()
		name := ""
		switch req.op {
		case opDesc:
			name = "Index.Descendants"
			desc(req.desc)
		case opConn:
			name = "Index.ConnectedOpts"
			ix.ConnectedOpts(req.from, req.to, flix.Options{})
		case opQuery:
			name = "Evaluator.EvaluateTopK"
			ev := &flix.Evaluator{Index: ix, MaxResults: rankedK}
			ev.EvaluateTopK(req.query, rankedK)
			if i >= from {
				lib.scans += ev.Stats.Scans
			}
		case opBatch:
			name = "Index.Descendants×batch"
			for _, it := range req.items {
				desc(it)
			}
		}
		if i < from {
			continue
		}
		d := time.Since(t0)
		lib.sum[req.op] += d
		lib.n[req.op]++
		r.spans.add(name, root, t0, d, map[string]any{"seq": i})
	}
	r.spans.end(root, map[string]any{"from": from, "end": end})
	return lib
}

// missRequests draws descendants requests on keys the sequence never
// uses, so each one misses the server's query cache.
func (r *runner) missRequests() (*sequence, error) {
	used := map[string]bool{}
	for _, req := range r.seq.reqs {
		used[req.desc.start] = true
		for _, it := range req.items {
			used[it.start] = true
		}
	}
	c := r.corp.coll
	rnd := rand.New(rand.NewSource(r.seed ^ 0x3155))
	b := newBFS(c)
	seq := &sequence{}
	for tries := 0; len(seq.reqs) < missProbes && tries < 100*missProbes; tries++ {
		root := r.corp.roots[rnd.Intn(len(r.corp.roots))]
		name := c.Doc(c.DocOf(root)).Name
		if used[name] || used[strconv.Itoa(int(root))] {
			continue
		}
		used[name] = true
		it := descItem{node: root, start: name, tag: descTags[1+rnd.Intn(len(descTags)-1)], k: 10, rs: b.reach(root)}
		seq.reqs = append(seq.reqs, request{op: opDesc, desc: it,
			path: fmt.Sprintf("/v1/descendants?start=%s&tag=%s&k=10", name, it.tag)})
	}
	if len(seq.reqs) < missProbes {
		return nil, fmt.Errorf("only %d unused start documents for the cache-miss pass", len(seq.reqs))
	}
	return seq, nil
}

// routerPass deploys flixd-router over two shards and sends the
// descendants and connection requests of the sequence's measured stretch
// through it, traced, one at a time.
func (r *runner) routerPass(seq *sequence, from int, m layerMetrics, fail func(string, ...any)) ([]outcome, error) {
	cl, err := r.deployCluster(routerShards)
	if err != nil {
		return nil, err
	}
	r.spans.add("deploy-cluster", 0, time.Now().Add(-cl.setup), cl.setup, map[string]any{"shards": routerShards})
	rs := &sequence{}
	for i := from; len(rs.reqs) < routerRequests; i++ {
		if req := seq.reqs[i%len(seq.reqs)]; req.op == opDesc || req.op == opConn {
			rs.reqs = append(rs.reqs, req)
		}
	}
	before := make([]promSample, 0, len(cl.shards)+1)
	for _, p := range append([]*proc{cl.router}, cl.shards...) {
		s, err := r.scrape(p)
		if err != nil {
			return nil, err
		}
		before = append(before, s)
	}
	rg := &loadGen{base: cl.router.url, client: r.client, coll: r.corp.coll, seq: rs, traceEvery: 1}
	sp := r.spans.begin("pass-R", 0)
	outs := rg.sequential(len(rs.reqs))
	r.spans.end(sp, map[string]any{"requests": len(outs)})
	r.httpSpans(sp, outs)
	var rounds, rpcs, rpcTime, self, partial, traced float64
	var sent [numOps]float64
	for _, o := range outs {
		sent[o.op]++
		if len(o.trace) == 0 {
			continue
		}
		var ct clusterTrace
		if err := json.Unmarshal(o.trace, &ct); err != nil {
			return nil, fmt.Errorf("decode cluster EXPLAIN: %w", err)
		}
		traced++
		rounds += float64(ct.Rounds)
		for _, s := range ct.Shards {
			rpcs += float64(s.RPCs)
			rpcTime += float64(s.RPCTime)
		}
		self += float64(ct.Elapsed - ct.Root.roundTime())
		if ct.Partial {
			partial++
		}
	}
	var evalSum, evalN float64
	after := make([]promSample, 0, len(before))
	for i, p := range append([]*proc{cl.router}, cl.shards...) {
		s, err := r.scrape(p)
		if err != nil {
			return nil, err
		}
		after = append(after, s)
		if i > 0 {
			evalSum += delta(before[i], s, `flix_request_duration_seconds_sum{endpoint="shard_eval"}`)
			evalN += delta(before[i], s, `flix_request_duration_seconds_count{endpoint="shard_eval"}`)
		}
	}
	for op := opDesc; op <= opConn; op++ {
		key := fmt.Sprintf("flix_router_requests_total{endpoint=%q}", opNames[op])
		if got := delta(before[0], after[0], key); got != sent[op] {
			fail("router %s: sent %.0f requests, %s moved by %.0f", opNames[op], sent[op], key, got)
		}
	}
	for _, w := range rg.rejections() {
		fail("router oracle: %s", w)
	}
	m.set("shard.rounds_per_query", "count", ratioOf(rounds, traced))
	m.set("shard.rpcs_per_query", "count", ratioOf(rpcs, traced))
	m.set("shard.rpc_us", "us", ratioOf(rpcTime, rpcs)/1e3)
	m.set("shard.eval_us", "us", ratioOf(evalSum, evalN)*1e6)
	m.set("shard.router_self_us", "us", ratioOf(self, traced)/1e3)
	m.set("shard.partial_frac", "ratio", ratioOf(partial, float64(len(outs))))
	r.procs.stopSome(append([]*proc{cl.router}, cl.shards...))
	return outs, nil
}

func medianDuration(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
