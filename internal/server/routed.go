package server

// The routed backend: flixd-router's scatter-gather over a shard.Router.
// Answers carry the partial-results contract on top of the single-node
// wire shape — "partial" and "failedShards" in the body, the
// X-Flix-Shards-Failed header — and ?trace=1 returns the merged cluster
// trace.

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/flix"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// NewRouted returns a server fronting a router; the caller starts its
// prober (rt.Start).  The local-backend fields of cfg (CacheSize,
// TraceEventLimit, Shard) do not apply.
func NewRouted(rt *shard.Router, cfg Config) *Server {
	s := newServer(rt.Collection(), cfg)
	s.be = routedBackend{Server: s, rt: rt}
	return s
}

// routedBackend serves a shard.Router.
type routedBackend struct {
	*Server
	rt *shard.Router
}

func (b routedBackend) refuse() (int, string) {
	if msg := b.rt.NotReady(); msg != "" {
		return http.StatusServiceUnavailable, msg
	}
	if b.rt.Saturated() {
		return http.StatusTooManyRequests, "all shards at capacity, retry later"
	}
	return 0, ""
}

// open starts the request's shard.Call.  Only the single-query endpoints
// return a trace, so a batch runs untraced.
func (b routedBackend) open(ctx context.Context, ri *reqInfo, sampled bool) view {
	traced := ri.traceWanted && ri.endpoint != "batch"
	return routedView{Call: b.rt.NewCall(ctx, ri.id, ri.endpoint, traced), rt: b.rt, endpoint: ri.endpoint}
}

func (b routedBackend) routes(mux *http.ServeMux) {}

func (b routedBackend) healthz(body map[string]any) bool { return b.rt.Health(body) }

func (b routedBackend) statsz() map[string]any {
	latency := make(map[string]any, len(b.latency))
	for ep, h := range b.latency {
		sn := h.Snapshot()
		latency[ep] = map[string]any{
			"count": sn.Count,
			"p50":   sn.Quantile(0.50).Round(time.Microsecond).String(),
			"p99":   sn.Quantile(0.99).Round(time.Microsecond).String(),
		}
	}
	out := map[string]any{
		"uptime": time.Since(b.started).Round(time.Millisecond).String(),
		"requests": map[string]any{
			"descendants":  b.reqDescendants.Load(),
			"connected":    b.reqConnected.Load(),
			"query":        b.reqQuery.Load(),
			"batch":        b.reqBatch.Load(),
			"shed":         b.shed.Load(),
			"notReady":     b.notReady.Load(),
			"timeouts":     b.timeouts.Load(),
			"clientErrors": b.clientErrors.Load(),
			"inFlight":     b.InFlight(),
			"maxInFlight":  b.cfg.MaxInFlight,
		},
		"latency": latency,
	}
	b.rt.Status(out)
	return out
}

func (b routedBackend) metricPrefix() string { return "flix_router" }

func (b routedBackend) metrics(p func(format string, args ...any)) { b.rt.WriteMetrics(p) }

// routedView is one request's shard.Call.
type routedView struct {
	*shard.Call
	rt       *shard.Router
	endpoint string
}

func (v routedView) descendants(start xmlgraph.NodeID, tag string, opts flix.Options, emit flix.Emit) {
	v.Descendants(start, tag, opts, emit)
}

func (v routedView) connected(from, to xmlgraph.NodeID, opts flix.Options) (int32, bool) {
	return v.Connected(from, to, opts.MaxDist)
}

func (v routedView) index() query.Backend { return v.Call }

func (v routedView) batchKey(start xmlgraph.NodeID, tag string) (int32, bool) {
	return v.rt.MetaOf(start), false
}

func (v routedView) partials() int { return v.Partials() }

func (v routedView) finish(w http.ResponseWriter, resp map[string]any, results int64, st *query.EvalStats) {
	setFailedShards(w, v.FailedShards())
	resp["partial"] = v.Partials() > 0
	resp["failedShards"] = v.FailedShards()
	// A descendants request is exactly one gather, whose rounds it reports.
	if v.endpoint == "descendants" {
		resp["rounds"] = v.Rounds()
	}
	if tr := v.Trace(results, st); tr != nil {
		resp["trace"] = tr
	}
}

func (v routedView) finishBatch(w http.ResponseWriter, resp *shard.BatchResponse) {
	setFailedShards(w, v.FailedShards())
	resp.FailedShards = v.FailedShards()
}

// setFailedShards attaches X-Flix-Shards-Failed when shards dropped out of
// a request's gathers.
func setFailedShards(w http.ResponseWriter, failed []int) {
	if len(failed) == 0 {
		return
	}
	ids := make([]string, len(failed))
	for i, sh := range failed {
		ids[i] = strconv.Itoa(sh)
	}
	w.Header().Set(shard.FailedShardsHeader, strings.Join(ids, ","))
}
