package shard

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Health adds the router's own /healthz fields to body — the aggregate
// status, the quorum and each shard's probe state — and reports readiness:
// the topology is loaded and a quorum of shards is up.
func (rt *Router) Health(body map[string]any) bool {
	ready := rt.Ready()
	readyShards := rt.readyShards()
	status := "ok"
	switch {
	case !ready:
		status = "starting"
	case readyShards < len(rt.shards):
		status = "degraded"
	}
	shards := make([]map[string]any, len(rt.shards))
	for i, st := range rt.shards {
		shards[i] = map[string]any{
			"id":         i,
			"url":        st.url,
			"ready":      st.ready.Load(),
			"saturated":  st.saturated.Load(),
			"generation": st.generation.Load(),
		}
		if e := st.errString(); e != "" {
			shards[i]["error"] = e
		}
	}
	body["status"] = status
	body["readyShards"] = readyShards
	body["shards"] = len(rt.shards)
	body["quorum"] = rt.cfg.Quorum
	body["shardStates"] = shards
	return ready
}

// Status adds the router's own /statsz sections to out: readiness, the
// topology, the scatter counters and a per-shard section with probe state,
// backpressure and the shard RPC latency quantiles.
func (rt *Router) Status(out map[string]any) {
	topoSection := map[string]any{"loaded": false}
	if topo := rt.topo.Load(); topo != nil {
		topoSection = map[string]any{
			"loaded":      true,
			"metas":       topo.numMetas,
			"nodes":       topo.numNodes,
			"fingerprint": topo.fingerprint,
			"loadedFrom":  topo.loadedFrom,
		}
	}
	shards := make([]map[string]any, len(rt.shards))
	for i, st := range rt.shards {
		sn := rt.shardLatency[i].Snapshot()
		shards[i] = map[string]any{
			"id":          i,
			"url":         st.url,
			"ready":       st.ready.Load(),
			"saturated":   st.saturated.Load(),
			"generation":  st.generation.Load(),
			"inFlight":    st.inFlight.Load(),
			"maxInFlight": st.maxInFlight.Load(),
			"probes":      st.probes.Load(),
			"probeFails":  st.probeFails.Load(),
			"consecFails": st.consecFails.Load(),
			"rpcs":        st.rpcs.Load(),
			"rpcErrors":   st.rpcErrors.Load(),
			"rpcCount":    sn.Count,
			"rpcP50":      durString(sn.Quantile(0.50)),
			"rpcP99":      durString(sn.Quantile(0.99)),
		}
		if e := st.errString(); e != "" {
			shards[i]["lastError"] = e
		}
	}
	out["ready"] = rt.Ready()
	out["topology"] = topoSection
	out["scatter"] = map[string]any{
		"fanouts":          rt.fanouts.Load(),
		"gathers":          rt.gathers.Load(),
		"rounds":           rt.rounds.Load(),
		"roundsPerGather":  ratio(rt.rounds.Load(), rt.gathers.Load()),
		"hops":             rt.hops.Load(),
		"hopsDeduped":      rt.hopsDeduped.Load(),
		"hopsRedispatched": rt.hopsRedispatched.Load(),
		"earlyStops":       rt.earlyStops.Load(),
		"budgetStops":      rt.budgetStops.Load(),
		"partials":         rt.partials.Load(),
		"shardFailures":    rt.shardFailures.Load(),
		"hopBudget":        rt.cfg.HopBudget,
		"tracedQueries":    rt.tracedQueries.Load(),
	}
	out["shardStates"] = shards
}

func durString(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// ratio guards the rounds-per-gather division against a fresh router.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// WriteMetrics writes the router's own series in the Prometheus text
// format (internal/obs exposition helpers): readiness, the scatter counters
// and the per-shard RPC series.  The front end writes the request series.
func (rt *Router) WriteMetrics(p func(format string, args ...any)) {
	p("# HELP flix_router_ready Whether the router serves (topology loaded, quorum up).\n")
	p("# TYPE flix_router_ready gauge\n")
	if rt.Ready() {
		p("flix_router_ready 1\n")
	} else {
		p("flix_router_ready 0\n")
	}
	p("# HELP flix_router_shards_ready Shards currently probing ready.\n")
	p("# TYPE flix_router_shards_ready gauge\n")
	p("flix_router_shards_ready %d\n", rt.readyShards())
	p("# HELP flix_router_shards Configured shards.\n")
	p("# TYPE flix_router_shards gauge\n")
	p("flix_router_shards %d\n", len(rt.shards))

	p("# HELP flix_router_fanouts_total Shard RPC batches dispatched.\n")
	p("# TYPE flix_router_fanouts_total counter\n")
	p("flix_router_fanouts_total %d\n", rt.fanouts.Load())
	p("# HELP flix_router_gathers_total Scatter-gather evaluations executed.\n")
	p("# TYPE flix_router_gathers_total counter\n")
	p("flix_router_gathers_total %d\n", rt.gathers.Load())
	p("# HELP flix_router_rounds_total Scatter-gather rounds executed.\n")
	p("# TYPE flix_router_rounds_total counter\n")
	p("flix_router_rounds_total %d\n", rt.rounds.Load())
	p("# HELP flix_router_rounds_per_gather Mean re-dispatch rounds per gather since start.\n")
	p("# TYPE flix_router_rounds_per_gather gauge\n")
	p("flix_router_rounds_per_gather %s\n", obs.FormatFloat(ratio(rt.rounds.Load(), rt.gathers.Load())))
	p("# HELP flix_router_hops_total Cross-shard hop entries returned by shards.\n")
	p("# TYPE flix_router_hops_total counter\n")
	p("flix_router_hops_total %d\n", rt.hops.Load())
	p("# HELP flix_router_hops_deduped_total Hop entries dropped by the best-distance map.\n")
	p("# TYPE flix_router_hops_deduped_total counter\n")
	p("flix_router_hops_deduped_total %d\n", rt.hopsDeduped.Load())
	p("# HELP flix_router_hops_redispatched_total Hop entries re-dispatched to their owning shard.\n")
	p("# TYPE flix_router_hops_redispatched_total counter\n")
	p("flix_router_hops_redispatched_total %d\n", rt.hopsRedispatched.Load())
	p("# HELP flix_router_early_stops_total Gathers ended by the top-k or connectivity watermark.\n")
	p("# TYPE flix_router_early_stops_total counter\n")
	p("flix_router_early_stops_total %d\n", rt.earlyStops.Load())
	p("# HELP flix_router_budget_stops_total Gathers that exhausted the hop budget.\n")
	p("# TYPE flix_router_budget_stops_total counter\n")
	p("flix_router_budget_stops_total %d\n", rt.budgetStops.Load())
	p("# HELP flix_router_partial_results_total Queries answered with a partial result.\n")
	p("# TYPE flix_router_partial_results_total counter\n")
	p("flix_router_partial_results_total %d\n", rt.partials.Load())
	p("# HELP flix_router_shard_failures_total Shard batches dropped after retries.\n")
	p("# TYPE flix_router_shard_failures_total counter\n")
	p("flix_router_shard_failures_total %d\n", rt.shardFailures.Load())
	p("# HELP flix_router_traced_queries_total Queries evaluated with ?trace=1 distributed tracing.\n")
	p("# TYPE flix_router_traced_queries_total counter\n")
	p("flix_router_traced_queries_total %d\n", rt.tracedQueries.Load())

	p("# HELP flix_router_shard_rpc_duration_seconds Shard RPC latency by shard.\n")
	p("# TYPE flix_router_shard_rpc_duration_seconds histogram\n")
	for i := range rt.shards {
		writeHistogram(p, "flix_router_shard_rpc_duration_seconds", "shard", fmt.Sprintf("%d", i), rt.shardLatency[i].Snapshot())
	}
	p("# HELP flix_router_shard_rpcs_total Eval RPCs dispatched, by shard.\n")
	p("# TYPE flix_router_shard_rpcs_total counter\n")
	for i, st := range rt.shards {
		p("flix_router_shard_rpcs_total{shard=\"%d\"} %d\n", i, st.rpcs.Load())
	}
	p("# HELP flix_router_shard_rpc_errors_total Eval RPCs that failed after retries, by shard.\n")
	p("# TYPE flix_router_shard_rpc_errors_total counter\n")
	for i, st := range rt.shards {
		p("flix_router_shard_rpc_errors_total{shard=\"%d\"} %d\n", i, st.rpcErrors.Load())
	}
	p("# HELP flix_router_shard_ready Per-shard readiness.\n")
	p("# TYPE flix_router_shard_ready gauge\n")
	for i, st := range rt.shards {
		v := 0
		if st.ready.Load() {
			v = 1
		}
		p("flix_router_shard_ready{shard=\"%d\"} %d\n", i, v)
	}
}

// writeHistogram aliases the exposition helper shared with the single-node
// server's /metrics.
var writeHistogram = obs.WriteHistogramText
