package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/obs"
	"repro/internal/xmlgraph"
)

// dtraceRow is one shard count's record in BENCH_dtrace.json: the same
// oracle-checked query mix replayed untraced and with ?trace=1, so the cost
// of distributed tracing on the router path is measured directly.
type dtraceRow struct {
	Shards            int     `json:"shards"`
	Queries           int     `json:"queries"`
	UntracedP50Micros int64   `json:"untracedP50Micros"`
	UntracedP99Micros int64   `json:"untracedP99Micros"`
	TracedP50Micros   int64   `json:"tracedP50Micros"`
	TracedP99Micros   int64   `json:"tracedP99Micros"`
	OverheadPct       float64 `json:"overheadPct"` // p50 traced vs untraced
	RoundsPerQuery    float64 `json:"roundsPerQuery"`
	SpansPerQuery     float64 `json:"spansPerQuery"` // dispatch spans (fragments)
	Verified          bool    `json:"oracleVerified"`
	Reconciled        bool    `json:"metricsReconciled"`
}

type dtraceResult struct {
	Experiment string      `json:"experiment"`
	Config     string      `json:"config"`
	Docs       int         `json:"docs"`
	Elements   int         `json:"elements"`
	Rows       []dtraceRow `json:"rows"`
}

// dtraceExperiment measures distributed tracing end to end on 1, 2 and 4
// in-process shards behind a real-HTTP router.  Every response (traced and
// untraced) is checked against the BFS oracle, every trace's gather, round,
// fanout and hop counts are reconciled exactly against the router's
// /metrics counter deltas, and the reported overhead is the p50 latency
// cost of ?trace=1 over the untraced fast path.
func dtraceExperiment(docs int, seed int64, out string) {
	fmt.Println("=== Dtrace: distributed-tracing overhead and reconciliation ===")
	p := dblp.DefaultParams()
	p.Docs = docs
	p.Seed = seed
	e := bench.NewExperiment(p)
	ix, err := flix.Build(e.Coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 2000})
	if err != nil {
		log.Fatal(err)
	}

	var queries []shardQuery
	add := func(start xmlgraph.NodeID, tag string) {
		queries = append(queries, shardQuery{start: start, tag: tag, want: e.Coll.DescendantsByTag(start, tag)})
	}
	add(e.Start, "article")
	add(e.Start, "title")
	for d := 0; d < e.Coll.NumDocs() && len(queries) < 18; d += e.Coll.NumDocs()/16 + 1 {
		add(e.Coll.Doc(xmlgraph.DocID(d)).Root, "author")
	}

	res := dtraceResult{
		Experiment: "dtrace",
		Config:     ix.Config().Kind.String(),
		Docs:       e.Coll.NumDocs(),
		Elements:   e.Coll.NumNodes(),
	}
	fmt.Printf("%8s %10s %12s %12s %12s %12s %10s %12s\n",
		"shards", "queries", "plain-p50", "plain-p99", "traced-p50", "traced-p99", "overhead", "spans/query")
	for _, n := range []int{1, 2, 4} {
		row := runDtraceCount(e.Coll, ix, n, queries)
		res.Rows = append(res.Rows, row)
		fmt.Printf("%8d %10d %12s %12s %12s %12s %9.1f%% %12.1f\n", row.Shards, row.Queries,
			time.Duration(row.UntracedP50Micros)*time.Microsecond, time.Duration(row.UntracedP99Micros)*time.Microsecond,
			time.Duration(row.TracedP50Micros)*time.Microsecond, time.Duration(row.TracedP99Micros)*time.Microsecond,
			row.OverheadPct, row.SpansPerQuery)
	}
	fmt.Println()

	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// dtraceCounters are the /metrics counters a trace must reconcile with.
type dtraceCounters struct {
	gathers, rounds, fanouts, hops, redispatched, deduped, traced int64
}

// scrapeCounters pulls the reconciliation counters out of the router's
// Prometheus exposition.
func scrapeCounters(url string) dtraceCounters {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	vals := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, raw, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(raw, 64); err == nil {
			vals[name] = int64(v)
		}
	}
	return dtraceCounters{
		gathers:      vals["flix_router_gathers_total"],
		rounds:       vals["flix_router_rounds_total"],
		fanouts:      vals["flix_router_fanouts_total"],
		hops:         vals["flix_router_hops_total"],
		redispatched: vals["flix_router_hops_redispatched_total"],
		deduped:      vals["flix_router_hops_deduped_total"],
		traced:       vals["flix_router_traced_queries_total"],
	}
}

// runDtraceCount stands up n shards plus a router, replays the mix untraced
// then traced, and reconciles the traced pass against /metrics.
func runDtraceCount(coll *xmlgraph.Collection, ix *flix.Index, n int, queries []shardQuery) dtraceRow {
	routerURL, stop := startCluster(coll, ix, n)
	defer stop()

	type wire struct {
		Results []struct {
			Node xmlgraph.NodeID `json:"node"`
			Dist int32           `json:"dist"`
		} `json:"results"`
		Partial bool              `json:"partial"`
		Rounds  int               `json:"rounds"`
		Trace   *obs.ClusterTrace `json:"trace"`
	}
	runPass := func(traced, record bool) (durs []time.Duration, traces []*obs.ClusterTrace) {
		for _, q := range queries {
			url := fmt.Sprintf("%s/v1/descendants?start=%d&tag=%s&k=%d&timeout=30s",
				routerURL, q.start, q.tag, len(q.want)+1)
			if traced {
				url += "&trace=1"
			}
			t0 := time.Now()
			resp, err := http.Get(url)
			if err != nil {
				log.Fatal(err)
			}
			var w wire
			if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
			d := time.Since(t0)
			if resp.StatusCode != http.StatusOK || w.Partial {
				log.Fatalf("dtrace %d shards: status %d partial %v", n, resp.StatusCode, w.Partial)
			}
			if len(w.Results) != len(q.want) {
				log.Fatalf("dtrace %d shards: start=%d tag=%s: %d results, oracle %d",
					n, q.start, q.tag, len(w.Results), len(q.want))
			}
			for i, r := range w.Results {
				if r.Node != q.want[i].Node || r.Dist != q.want[i].Dist {
					log.Fatalf("dtrace %d shards: start=%d tag=%s result %d: (%d,%d) != oracle (%d,%d)",
						n, q.start, q.tag, i, r.Node, r.Dist, q.want[i].Node, q.want[i].Dist)
				}
			}
			if traced != (w.Trace != nil) {
				log.Fatalf("dtrace %d shards: trace=%v request returned trace=%v", n, traced, w.Trace != nil)
			}
			if w.Trace != nil && w.Trace.Rounds != w.Rounds {
				log.Fatalf("dtrace %d shards: trace rounds %d != response rounds %d", n, w.Trace.Rounds, w.Rounds)
			}
			if record {
				durs = append(durs, d)
				traces = append(traces, w.Trace)
			}
		}
		return durs, traces
	}

	runPass(false, false) // warm connections and page cache
	plain, _ := runPass(false, true)

	before := scrapeCounters(routerURL)
	traced, traces := runPass(true, true)
	after := scrapeCounters(routerURL)

	// Reconcile the summed per-trace counts against the counter deltas —
	// the acceptance contract of the tracing tier.
	var sum dtraceCounters
	var spans int64
	for _, ct := range traces {
		sum.gathers += int64(ct.Gathers)
		sum.rounds += int64(ct.Rounds)
		sum.fanouts += int64(ct.Fanouts)
		sum.hops += ct.HopsSeen
		sum.redispatched += ct.HopsRedispatched
		sum.deduped += ct.HopsDeduped
		sum.traced++
		spans += int64(ct.Fanouts)
	}
	delta := dtraceCounters{
		gathers:      after.gathers - before.gathers,
		rounds:       after.rounds - before.rounds,
		fanouts:      after.fanouts - before.fanouts,
		hops:         after.hops - before.hops,
		redispatched: after.redispatched - before.redispatched,
		deduped:      after.deduped - before.deduped,
		traced:       after.traced - before.traced,
	}
	if delta != sum {
		log.Fatalf("dtrace %d shards: /metrics deltas %+v != summed traces %+v", n, delta, sum)
	}

	pct := func(durs []time.Duration, p float64) time.Duration {
		sorted := append([]time.Duration(nil), durs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[min(int(p*float64(len(sorted))), len(sorted)-1)]
	}
	var rounds int64
	for _, ct := range traces {
		rounds += int64(ct.Rounds)
	}
	up50, tp50 := pct(plain, 0.50), pct(traced, 0.50)
	return dtraceRow{
		Shards:            n,
		Queries:           len(queries),
		UntracedP50Micros: up50.Microseconds(),
		UntracedP99Micros: pct(plain, 0.99).Microseconds(),
		TracedP50Micros:   tp50.Microseconds(),
		TracedP99Micros:   pct(traced, 0.99).Microseconds(),
		OverheadPct:       100 * (float64(tp50)/float64(up50) - 1),
		RoundsPerQuery:    float64(rounds) / float64(len(traces)),
		SpansPerQuery:     float64(spans) / float64(len(traces)),
		Verified:          true,
		Reconciled:        true,
	}
}
