package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/dblp"
	"repro/internal/flix"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// shardRow is one shard count's record in BENCH_shard.json: scatter-gather
// throughput and tail latency through a real router + N flixd shards, every
// response checked against the BFS oracle.
type shardRow struct {
	Shards        int     `json:"shards"`
	Queries       int     `json:"queries"`
	Results       int64   `json:"results"`
	ResultsPerSec float64 `json:"resultsPerSec"`
	P50Micros     int64   `json:"p50Micros"`
	P99Micros     int64   `json:"p99Micros"`
	Rounds        float64 `json:"roundsPerQuery"`
	Verified      bool    `json:"oracleVerified"`
}

type shardResult struct {
	Experiment string     `json:"experiment"`
	Config     string     `json:"config"`
	Docs       int        `json:"docs"`
	Elements   int        `json:"elements"`
	Rows       []shardRow `json:"rows"`
}

// shardExperiment measures the sharded serving tier end to end: the same
// prebuilt index served by 1, 2 and 4 in-process shards behind a router,
// over real HTTP.  One shard is the router-overhead baseline; more shards
// trade per-query fan-out (rounds, RPCs) against per-shard frontier work.
// Every response is compared element-for-element against the BFS oracle, so
// the numbers are only reported for provably exact configurations.
func shardExperiment(docs int, seed int64, out string) {
	fmt.Println("=== Shard: scatter-gather scaling across 1/2/4 shards ===")
	p := dblp.DefaultParams()
	p.Docs = docs
	p.Seed = seed
	e := bench.NewExperiment(p)
	ix, err := flix.Build(e.Coll, flix.Config{Kind: flix.Hybrid, PartitionSize: 2000})
	if err != nil {
		log.Fatal(err)
	}

	// The query mix: the hub element's heavy article scan plus a spread of
	// lighter per-document scans, each oracle-checked.
	var queries []shardQuery
	add := func(start xmlgraph.NodeID, tag string) {
		queries = append(queries, shardQuery{start: start, tag: tag, want: e.Coll.DescendantsByTag(start, tag)})
	}
	add(e.Start, "article")
	add(e.Start, "title")
	for d := 0; d < e.Coll.NumDocs() && len(queries) < 26; d += e.Coll.NumDocs()/24 + 1 {
		add(e.Coll.Doc(xmlgraph.DocID(d)).Root, "author")
	}

	res := shardResult{
		Experiment: "shard",
		Config:     ix.Config().Kind.String(),
		Docs:       e.Coll.NumDocs(),
		Elements:   e.Coll.NumNodes(),
	}
	fmt.Printf("%8s %10s %14s %12s %12s %14s\n", "shards", "queries", "results/sec", "p50", "p99", "rounds/query")
	for _, n := range []int{1, 2, 4} {
		row := runShardCount(e.Coll, ix, n, queries)
		res.Rows = append(res.Rows, row)
		fmt.Printf("%8d %10d %14.0f %12s %12s %14.2f\n", row.Shards, row.Queries, row.ResultsPerSec,
			time.Duration(row.P50Micros)*time.Microsecond, time.Duration(row.P99Micros)*time.Microsecond, row.Rounds)
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

// shardQuery is one oracle-checked query of the shard experiment's mix.
type shardQuery struct {
	start xmlgraph.NodeID
	tag   string
	want  []xmlgraph.NodeDist
}

// startCluster stands up n in-process shard servers plus a router, all over
// real HTTP, and waits for the router to become ready.  It returns the
// router's base URL and the cluster's teardown.
func startCluster(coll *xmlgraph.Collection, ix *flix.Index, n int) (string, func()) {
	shards := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := server.New(ix, server.Config{
			Shard:     &server.ShardConfig{ID: i, Count: n},
			CacheSize: -1,
		})
		shards[i] = httptest.NewServer(s.Handler())
		urls[i] = shards[i].URL
	}
	rt, err := shard.NewRouter(coll, shard.RouterConfig{
		Shards:        urls,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.Start(ctx)
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := rt.WaitReady(wctx); err != nil {
		log.Fatalf("router with %d shards never became ready: %v", n, err)
	}
	router := httptest.NewServer(server.NewRouted(rt, server.Config{MaxLimit: 1 << 20}).Handler())
	return router.URL, func() {
		router.Close()
		cancel()
		for _, ts := range shards {
			ts.Close()
		}
	}
}

// runShardCount stands up n shard servers plus a router over real HTTP,
// replays the query mix through /v1/descendants, verifies every stream
// against its oracle, and reports throughput and latency percentiles.
func runShardCount(coll *xmlgraph.Collection, ix *flix.Index, n int, queries []shardQuery) shardRow {
	routerURL, stop := startCluster(coll, ix, n)
	defer stop()

	type wire struct {
		Results []struct {
			Node xmlgraph.NodeID `json:"node"`
			Dist int32           `json:"dist"`
		} `json:"results"`
		Partial bool `json:"partial"`
		Rounds  int  `json:"rounds"`
	}
	const passes = 3 // pass 0 warms the page cache and connection pools
	var durs []time.Duration
	var results, rounds int64
	nq := 0
	for pass := 0; pass < passes; pass++ {
		for _, q := range queries {
			t0 := time.Now()
			resp, err := http.Get(fmt.Sprintf("%s/v1/descendants?start=%d&tag=%s&k=%d&timeout=30s",
				routerURL, q.start, q.tag, len(q.want)+1))
			if err != nil {
				log.Fatal(err)
			}
			var w wire
			if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
			d := time.Since(t0)
			if resp.StatusCode != http.StatusOK {
				log.Fatalf("%d shards: status %d", n, resp.StatusCode)
			}
			if w.Partial {
				log.Fatalf("%d shards: healthy cluster answered partial", n)
			}
			if len(w.Results) != len(q.want) {
				log.Fatalf("%d shards: start=%d tag=%s: %d results, oracle %d",
					n, q.start, q.tag, len(w.Results), len(q.want))
			}
			for i, r := range w.Results {
				if r.Node != q.want[i].Node || r.Dist != q.want[i].Dist {
					log.Fatalf("%d shards: start=%d tag=%s result %d: (%d,%d) != oracle (%d,%d)",
						n, q.start, q.tag, i, r.Node, r.Dist, q.want[i].Node, q.want[i].Dist)
				}
			}
			if pass > 0 {
				durs = append(durs, d)
				results += int64(len(w.Results))
				rounds += int64(w.Rounds)
				nq++
			}
		}
	}

	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	pct := func(p float64) time.Duration { return durs[min(int(p*float64(len(durs))), len(durs)-1)] }
	return shardRow{
		Shards:        n,
		Queries:       nq,
		Results:       results,
		ResultsPerSec: float64(results) / total.Seconds(),
		P50Micros:     pct(0.50).Microseconds(),
		P99Micros:     pct(0.99).Microseconds(),
		Rounds:        float64(rounds) / float64(nq),
		Verified:      true,
	}
}
