package server

// The local backend: flixd's hot-swappable index generation, the query
// cache fronting it and, in shard mode, the ring ownership the shard
// endpoints (shard.go) evaluate under.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/flix"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// generation is one immutable serving epoch: an index, the query cache
// fronting it, and the per-strategy latency histograms for the strategies
// present in that index.  A live reindex installs a complete new generation
// with a single atomic pointer store; requests capture the pointer once at
// admission, so an in-flight query finishes entirely on the generation it
// started on while new arrivals already see the next one.  The cache is
// part of the generation, which enforces the purge-on-swap invariant for
// free: a new index never serves results memoized from an old one.
type generation struct {
	num          uint64
	ix           *flix.Index
	cache        *flix.QueryCache
	stratLatency map[string]*obs.Histogram
	installed    time.Time
	reason       string
	warmed       int // queries pre-warmed from the previous generation's cache
	// shard is the per-generation shard state (ownership mask,
	// decomposition fingerprint); nil outside shard mode.
	shard *shardGen
}

// New wraps a built index as generation 1.  cfg zero-value fields take the
// documented defaults.
func New(ix *flix.Index, cfg Config) *Server {
	s := NewPending(ix.Collection(), cfg)
	s.Install(ix, "initial index")
	return s
}

// NewPending returns a server with no index yet: /healthz reports 503 and
// the query endpoints shed with 503 until Install delivers the first
// generation.  It lets flixd bind its port and expose health immediately
// while the initial build runs in the background.
func NewPending(coll *xmlgraph.Collection, cfg Config) *Server {
	s := newServer(coll, cfg)
	s.be = localBackend{s}
	// The shard-eval histogram sits beside the query endpoints' in
	// flix_request_duration_seconds.
	s.latency["shard_eval"] = new(obs.Histogram)
	if sc := s.cfg.Shard; sc != nil {
		if sc.Count < 1 || sc.ID < 0 || sc.ID >= sc.Count {
			panic(fmt.Sprintf("server: shard %d of %d is not a valid ring position", sc.ID, sc.Count))
		}
		s.ring = shard.NewRing(sc.Count, sc.VNodes)
	}
	return s
}

// Install atomically hot-swaps in a new index and returns its generation
// number.  The index must be built over the server's collection.  In-flight
// queries keep the generation they were admitted under; the new generation
// starts with a fresh query cache and fresh per-strategy histograms.
func (s *Server) Install(ix *flix.Index, reason string) uint64 {
	if ix.Collection() != s.coll {
		panic("server: Install with an index built over a different collection")
	}
	g := &generation{
		num:          s.genSeq.Add(1),
		ix:           ix,
		stratLatency: make(map[string]*obs.Histogram),
		installed:    time.Now(),
		reason:       reason,
	}
	for name := range ix.StrategyCounts() {
		g.stratLatency[name] = new(obs.Histogram)
	}
	s.initShard(g)
	if s.cfg.CacheSize > 0 {
		g.cache = ix.NewQueryCache(s.cfg.CacheSize)
		g.cache.StoreBounded = true
		// Take over the outgoing generation's working set before going
		// live: the warming evaluations run here, on the installer's
		// goroutine, so post-swap clients hit a warm cache instead of
		// re-evaluating the whole hot set at once (the latency cliff a
		// plain purge-on-swap would cause).
		if old := s.gen.Load(); old != nil && old.cache != nil {
			g.warmed = g.cache.Warm(old.cache.HotKeys(0), nil)
		}
	}
	s.gen.Store(g)
	if g.num > 1 {
		s.swaps.Add(1)
	}
	return g.num
}

// Ready reports whether a generation is live.
func (s *Server) Ready() bool { return s.gen.Load() != nil }

// CurrentIndex returns the serving index, or nil before the first Install.
// Together with Generation, StrategyLatency and Install it forms the
// rebuild.Target surface the background re-optimizer works against.
func (s *Server) CurrentIndex() *flix.Index {
	if g := s.gen.Load(); g != nil {
		return g.ix
	}
	return nil
}

// Generation returns the current generation number (0 before the first
// Install).
func (s *Server) Generation() uint64 {
	if g := s.gen.Load(); g != nil {
		return g.num
	}
	return 0
}

// Swaps returns how many hot-swaps have happened (installs past the first).
func (s *Server) Swaps() int64 { return s.swaps.Load() }

// StrategyLatency snapshots the current generation's per-strategy latency
// histograms — the signal the re-optimizer uses to derive strategy
// overrides.
func (s *Server) StrategyLatency() map[string]obs.HistSnapshot {
	g := s.gen.Load()
	if g == nil {
		return nil
	}
	out := make(map[string]obs.HistSnapshot, len(g.stratLatency))
	for name, h := range g.stratLatency {
		out[name] = h.Snapshot()
	}
	return out
}

// reindexerBox wraps the Reindexer interface value so it can sit behind an
// atomic pointer: flixd installs it after the handler is already serving.
type reindexerBox struct{ r Reindexer }

// SetReindexer installs the background re-optimizer driving
// POST /v1/admin/reindex.  Safe to call while the handler is serving.
func (s *Server) SetReindexer(r Reindexer) { s.reindexer.Store(&reindexerBox{r: r}) }

// getReindexer returns the installed re-optimizer, or nil.
func (s *Server) getReindexer() Reindexer {
	if b := s.reindexer.Load(); b != nil {
		return b.r
	}
	return nil
}

// localBackend serves the Server's own generation.
type localBackend struct{ *Server }

func (s localBackend) refuse() (int, string) {
	if s.gen.Load() == nil {
		return http.StatusServiceUnavailable, "index not ready: initial build in flight"
	}
	return 0, ""
}

// open captures the serving generation: the request finishes on it even if
// a swap installs the next one meanwhile.
func (s localBackend) open(ctx context.Context, ri *reqInfo, sampled bool) view {
	g := s.gen.Load()
	ri.gen = g
	if ri.traceWanted || sampled {
		ri.trace = obs.NewTrace(s.cfg.TraceEventLimit)
		ri.trace.SetGeneration(g.num)
	}
	return &localView{g: g, ri: ri}
}

func (s localBackend) routes(mux *http.ServeMux) {
	mux.HandleFunc("/v1/admin/reindex", s.handleReindex)
	if s.cfg.Shard != nil {
		mux.HandleFunc("/v1/shard/eval", s.handleShardEval)
		mux.HandleFunc("/v1/shard/links", s.handleShardLinks)
	}
}

func (s localBackend) healthz(body map[string]any) bool {
	g := s.gen.Load()
	if g == nil {
		body["status"] = "starting"
		return false
	}
	body["status"] = "ok"
	body["generation"] = g.num
	body["swaps"] = s.swaps.Load()
	// In shard mode the router's prober reads the ring position and the
	// decomposition fingerprint from here on every probe.
	if s.cfg.Shard != nil && g.shard != nil {
		body["shard"] = map[string]any{
			"id":          s.cfg.Shard.ID,
			"count":       s.cfg.Shard.Count,
			"fingerprint": g.shard.fingerprint,
		}
	}
	return true
}

func (s localBackend) metricPrefix() string { return "flix" }

// localView is one request's handle on the generation it was admitted
// under.
type localView struct {
	g  *generation
	ri *reqInfo
}

func (v *localView) descendants(start xmlgraph.NodeID, tag string, opts flix.Options, emit flix.Emit) {
	v.attribute(start)
	if v.g.cache != nil {
		v.g.cache.Descendants(start, tag, opts, emit)
	} else {
		v.g.ix.Descendants(start, tag, opts, emit)
	}
}

func (v *localView) connected(from, to xmlgraph.NodeID, opts flix.Options) (int32, bool) {
	v.attribute(from)
	return v.g.ix.ConnectedOpts(from, to, opts)
}

// attribute charges a single query to its start node's strategy in the
// per-strategy latency histograms; a batch mixes strategies and is charged
// to none.
func (v *localView) attribute(start xmlgraph.NodeID) {
	if v.ri.endpoint != "batch" {
		v.ri.strategy = v.g.ix.StrategyAt(start)
	}
}

func (v *localView) index() query.Backend { return v.g.ix }

func (v *localView) batchKey(start xmlgraph.NodeID, tag string) (int32, bool) {
	return v.g.ix.MetaOf(start), v.g.cache != nil && v.g.cache.Contains(start, tag)
}

func (v *localView) partials() int { return 0 }

func (v *localView) finish(w http.ResponseWriter, resp map[string]any, results int64, st *query.EvalStats) {
	resp["generation"] = v.g.num
	// The slow-query log records connected traces, but /v1/connected
	// answers have never carried one.
	if v.ri.traceWanted && v.ri.trace != nil && v.ri.endpoint != "connected" {
		resp["trace"] = v.ri.trace.Summary(true)
	}
}

func (v *localView) finishBatch(w http.ResponseWriter, resp *shard.BatchResponse) {
	resp.Generation = v.g.num
}

// statsz reports the engine's query-load statistics, the §7 self-tuning
// advice for the live load, cache effectiveness and the serving-layer
// counters in one JSON document.
func (s localBackend) statsz() map[string]any {
	g := s.gen.Load()
	if g == nil {
		return map[string]any{
			"ready": false,
			"server": map[string]any{
				"notReady": s.notReady.Load(),
				"uptime":   time.Since(s.started).Round(time.Millisecond).String(),
			},
		}
	}
	snap := g.ix.Stats().Snapshot()
	advice := g.ix.Advise()
	resp := map[string]any{
		"generation": map[string]any{
			"current":       g.num,
			"installedAt":   g.installed.Format(time.RFC3339Nano),
			"reason":        g.reason,
			"swaps":         s.swaps.Load(),
			"warmedQueries": g.warmed,
		},
		"index": map[string]any{
			"config":        g.ix.Config().Kind.String(),
			"metaDocuments": g.ix.NumMetaDocuments(),
			"runtimeLinks":  g.ix.RuntimeLinks(),
			"strategies":    g.ix.StrategyCounts(),
			"storage":       storageJSON(g.ix.StorageInfo()),
		},
		"queryStats": map[string]any{
			"queries":          snap.Queries,
			"pops":             snap.Pops,
			"entries":          snap.Entries,
			"dupDropped":       snap.DupDropped,
			"linkHops":         snap.LinkHops,
			"results":          snap.Results,
			"entriesPerQuery":  snap.EntriesPerQuery(),
			"linkHopsPerQuery": snap.LinkHopsPerQuery(),
			"dupDropRatio":     snap.DupDropRatio(),
		},
		"latency": s.latencyJSON(g),
		"build":   buildJSON(g.ix),
		"advice": map[string]any{
			"rebuild": advice.Rebuild,
			"reason":  advice.Reason,
		},
		"server": map[string]any{
			"inFlight":    s.InFlight(),
			"maxInFlight": s.cfg.MaxInFlight,
			"shed":        s.shed.Load(),
			"notReady":    s.notReady.Load(),
			"timeouts":    s.timeouts.Load(),
			"slowQueries": s.slowQueries.Load(),
			"requests": map[string]int64{
				"descendants": s.reqDescendants.Load(),
				"connected":   s.reqConnected.Load(),
				"query":       s.reqQuery.Load(),
				"batch":       s.reqBatch.Load(),
			},
		},
	}
	if advice.Rebuild {
		resp["advice"].(map[string]any)["config"] = map[string]any{
			"kind":          advice.Config.Kind.String(),
			"partitionSize": advice.Config.PartitionSize,
		}
	}
	if rx := s.getReindexer(); rx != nil {
		resp["reindex"] = rx.Status()
	}
	if sh := s.shardStatsz(g); sh != nil {
		resp["shard"] = sh
	}
	if g.cache != nil {
		hits, misses := g.cache.Counts()
		resp["cache"] = map[string]any{
			"entries": g.cache.Len(),
			"hits":    hits,
			"misses":  misses,
			"hitRate": g.cache.HitRate(),
		}
	}
	return resp
}

// storageJSON renders how the serving index is backed — "heap" for a
// built generation, "v1"/"v2" for restored ones, with the mapping size
// when the v2 container is served via mmap and a per-section-kind byte
// breakdown (with compression ratios) for snapshot-backed generations.
func storageJSON(si flix.StorageInfo) map[string]any {
	out := map[string]any{"format": si.Format, "mapped": si.Mapped}
	if si.Mapped {
		out["mappedBytes"] = si.MappedBytes
	}
	if si.SizeBytes > 0 {
		out["sizeBytes"] = si.SizeBytes
	}
	if si.Sections != nil {
		out["compressed"] = si.Compressed
		secs := make([]map[string]any, 0, len(si.Sections))
		for _, st := range si.Sections {
			sec := map[string]any{
				"kind":     st.Kind,
				"sections": st.Sections,
				"bytes":    st.Bytes,
			}
			if st.RawBytes > 0 {
				sec["rawBytes"] = st.RawBytes
				sec["ratio"] = math.Round(st.Ratio*100) / 100
			}
			secs = append(secs, sec)
		}
		out["sections"] = secs
	}
	return out
}

// latencyJSON summarizes the per-endpoint and the generation's per-strategy
// latency histograms for /statsz.
func (s localBackend) latencyJSON(g *generation) map[string]any {
	summ := func(hs map[string]*obs.Histogram) map[string]any {
		out := make(map[string]any, len(hs))
		for name, h := range hs {
			sn := h.Snapshot()
			if sn.Count == 0 {
				continue
			}
			out[name] = map[string]any{
				"count": sn.Count,
				"mean":  sn.Mean().Round(time.Microsecond).String(),
				"p50":   sn.Quantile(0.50).Round(time.Microsecond).String(),
				"p95":   sn.Quantile(0.95).Round(time.Microsecond).String(),
				"p99":   sn.Quantile(0.99).Round(time.Microsecond).String(),
			}
		}
		return out
	}
	return map[string]any{
		"endpoints":  summ(s.latency),
		"strategies": summ(g.stratLatency),
	}
}

// buildJSON renders the build-phase timings for /statsz, plus the on-disk
// size of the generation in its persisted form.
func buildJSON(ix *flix.Index) map[string]any {
	bs := ix.BuildStats()
	strategies := make(map[string]any, len(bs.Strategies))
	for name, sb := range bs.Strategies {
		strategies[name] = map[string]any{
			"metaDocuments": sb.Metas,
			"total":         sb.Total.Round(time.Microsecond).String(),
			"max":           sb.Max.Round(time.Microsecond).String(),
		}
	}
	workers := make([]map[string]any, 0, len(bs.Workers))
	for _, wb := range bs.Workers {
		workers = append(workers, map[string]any{
			"metaDocuments": wb.Metas,
			"busy":          wb.Busy.Round(time.Microsecond).String(),
		})
	}
	out := map[string]any{
		"partition":   bs.Partition.Round(time.Microsecond).String(),
		"select":      bs.Select.Round(time.Microsecond).String(),
		"indexBuild":  bs.IndexBuild.Round(time.Microsecond).String(),
		"parallelism": bs.Parallelism,
		"workers":     workers,
		"strategies":  strategies,
	}
	if sz, err := ix.SizeBytes(); err == nil {
		out["sizeBytes"] = sz
	}
	return out
}
