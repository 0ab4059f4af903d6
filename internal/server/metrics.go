package server

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/obs"
)

// handleMetrics renders the serving counters, then the backend's own
// series, in the Prometheus text exposition format, hand-rolled on the
// standard library (the module takes no external dependencies).  The
// request series carry the backend's prefix: flix_* on flixd,
// flix_router_* on flixd-router.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	pre := s.be.metricPrefix()

	p("# HELP %s_requests_total Query requests received, by endpoint.\n", pre)
	p("# TYPE %s_requests_total counter\n", pre)
	p("%s_requests_total{endpoint=\"batch\"} %d\n", pre, s.reqBatch.Load())
	p("%s_requests_total{endpoint=\"connected\"} %d\n", pre, s.reqConnected.Load())
	p("%s_requests_total{endpoint=\"descendants\"} %d\n", pre, s.reqDescendants.Load())
	p("%s_requests_total{endpoint=\"query\"} %d\n", pre, s.reqQuery.Load())

	p("# HELP %s_requests_shed_total Requests rejected with 429 at the admission limit or by backend backpressure.\n", pre)
	p("# TYPE %s_requests_shed_total counter\n", pre)
	p("%s_requests_shed_total %d\n", pre, s.shed.Load())

	p("# HELP %s_requests_not_ready_total Requests answered 503 before the backend was ready.\n", pre)
	p("# TYPE %s_requests_not_ready_total counter\n", pre)
	p("%s_requests_not_ready_total %d\n", pre, s.notReady.Load())

	p("# HELP %s_request_timeouts_total Requests whose deadline expired mid-evaluation.\n", pre)
	p("# TYPE %s_request_timeouts_total counter\n", pre)
	p("%s_request_timeouts_total %d\n", pre, s.timeouts.Load())

	p("# HELP %s_client_errors_total Requests rejected with a 4xx other than 429.\n", pre)
	p("# TYPE %s_client_errors_total counter\n", pre)
	p("%s_client_errors_total %d\n", pre, s.clientErrors.Load())

	p("# HELP %s_request_duration_seconds Query latency by endpoint.\n", pre)
	p("# TYPE %s_request_duration_seconds histogram\n", pre)
	for _, ep := range sortedKeys(s.latency) {
		writeHistogram(p, pre+"_request_duration_seconds", "endpoint", ep, s.latency[ep].Snapshot())
	}

	p("# HELP %s_inflight_requests Queries currently evaluating.\n", pre)
	p("# TYPE %s_inflight_requests gauge\n", pre)
	p("%s_inflight_requests %d\n", pre, s.InFlight())

	obs.WriteGoRuntimeText(p)
	s.be.metrics(p)
}

// metrics writes the local backend's series: readiness, the generation,
// per-strategy latency and, once a generation is live, the engine, cache,
// index and build figures describing it.
func (s localBackend) metrics(p func(format string, args ...any)) {
	g := s.gen.Load()

	p("# HELP flix_ready Whether an index generation is live (readiness).\n")
	p("# TYPE flix_ready gauge\n")
	if g != nil {
		p("flix_ready 1\n")
	} else {
		p("flix_ready 0\n")
	}
	p("# HELP flix_index_generation Current index generation number.\n")
	p("# TYPE flix_index_generation gauge\n")
	p("flix_index_generation %d\n", s.Generation())
	p("# HELP flix_index_swaps_total Hot-swaps of the serving index (installs past the first).\n")
	p("# TYPE flix_index_swaps_total counter\n")
	p("flix_index_swaps_total %d\n", s.swaps.Load())

	p("# HELP flix_slow_queries_total Requests slower than the slow-query threshold.\n")
	p("# TYPE flix_slow_queries_total counter\n")
	p("flix_slow_queries_total %d\n", s.slowQueries.Load())

	p("# HELP flix_strategy_request_duration_seconds Query latency by the indexing strategy of the start node's meta document (current generation).\n")
	p("# TYPE flix_strategy_request_duration_seconds histogram\n")
	if g != nil {
		for _, st := range sortedKeys(g.stratLatency) {
			writeHistogram(p, "flix_strategy_request_duration_seconds", "strategy", st, g.stratLatency[st].Snapshot())
		}
	}

	// Everything below describes the serving generation; before the first
	// install there is none to describe.
	if g == nil {
		return
	}

	snap := g.ix.Stats().Snapshot()
	p("# HELP flix_engine_queries_total Completed index evaluations.\n")
	p("# TYPE flix_engine_queries_total counter\n")
	p("flix_engine_queries_total %d\n", snap.Queries)
	p("# HELP flix_engine_pops_total Priority-queue pops in the evaluator.\n")
	p("# TYPE flix_engine_pops_total counter\n")
	p("flix_engine_pops_total %d\n", snap.Pops)
	p("# HELP flix_engine_entries_total Meta-document entry points processed.\n")
	p("# TYPE flix_engine_entries_total counter\n")
	p("flix_engine_entries_total %d\n", snap.Entries)
	p("# HELP flix_engine_dup_dropped_total Frontier entries dropped as already covered.\n")
	p("# TYPE flix_engine_dup_dropped_total counter\n")
	p("flix_engine_dup_dropped_total %d\n", snap.DupDropped)
	p("# HELP flix_engine_link_hops_total Runtime link traversals.\n")
	p("# TYPE flix_engine_link_hops_total counter\n")
	p("flix_engine_link_hops_total %d\n", snap.LinkHops)
	p("# HELP flix_engine_results_total Results emitted by the evaluator.\n")
	p("# TYPE flix_engine_results_total counter\n")
	p("flix_engine_results_total %d\n", snap.Results)

	if g.cache != nil {
		hits, misses := g.cache.Counts()
		p("# HELP flix_cache_hits_total Query-cache hits.\n")
		p("# TYPE flix_cache_hits_total counter\n")
		p("flix_cache_hits_total %d\n", hits)
		p("# HELP flix_cache_misses_total Query-cache misses.\n")
		p("# TYPE flix_cache_misses_total counter\n")
		p("flix_cache_misses_total %d\n", misses)
		p("# HELP flix_cache_entries Cached query streams.\n")
		p("# TYPE flix_cache_entries gauge\n")
		p("flix_cache_entries %d\n", g.cache.Len())
	}

	p("# HELP flix_index_meta_documents Meta documents in the index.\n")
	p("# TYPE flix_index_meta_documents gauge\n")
	p("flix_index_meta_documents %d\n", g.ix.NumMetaDocuments())
	p("# HELP flix_index_runtime_links Links followed at query time.\n")
	p("# TYPE flix_index_runtime_links gauge\n")
	p("flix_index_runtime_links %d\n", g.ix.RuntimeLinks())

	p("# HELP flix_index_strategy_meta_documents Meta documents per indexing strategy.\n")
	p("# TYPE flix_index_strategy_meta_documents gauge\n")
	counts := g.ix.StrategyCounts()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p("flix_index_strategy_meta_documents{strategy=%q} %d\n", n, counts[n])
	}

	bs := g.ix.BuildStats()
	p("# HELP flix_build_partition_seconds Build phase: meta-document partitioning time.\n")
	p("# TYPE flix_build_partition_seconds gauge\n")
	p("flix_build_partition_seconds %s\n", formatFloat(bs.Partition.Seconds()))
	p("# HELP flix_build_select_seconds Build phase: summed strategy-selection time.\n")
	p("# TYPE flix_build_select_seconds gauge\n")
	p("flix_build_select_seconds %s\n", formatFloat(bs.Select.Seconds()))
	p("# HELP flix_build_index_seconds Build phase: wall time of index construction.\n")
	p("# TYPE flix_build_index_seconds gauge\n")
	p("flix_build_index_seconds %s\n", formatFloat(bs.IndexBuild.Seconds()))
	p("# HELP flix_build_strategy_seconds Build phase: summed index construction time per strategy.\n")
	p("# TYPE flix_build_strategy_seconds gauge\n")
	for _, n := range sortedKeys(bs.Strategies) {
		p("flix_build_strategy_seconds{strategy=%q} %s\n", n, formatFloat(bs.Strategies[n].Total.Seconds()))
	}
}

// writeHistogram and formatFloat alias the exposition helpers shared with
// the router (internal/obs), keeping the two /metrics endpoints in one
// format.
var (
	writeHistogram = obs.WriteHistogramText
	formatFloat    = obs.FormatFloat
)

// sortedKeys returns the map's keys in sorted order, for a deterministic
// exposition.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
