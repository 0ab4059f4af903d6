// Package server is the HTTP front end of FliX — the serving layer the
// paper's framework implies but leaves to the host system.  One front end
// serves both binaries over a small backend interface:
//
//   - the local backend (New, NewPending): flixd's hot-swappable index
//     generation, its query cache and, in shard mode, the partial-frontier
//     endpoints a router fans out to;
//   - the routed backend (NewRouted): flixd-router's scatter-gather over a
//     shard.Router.
//
// Both answer concurrent queries over one small JSON API:
//
//	GET /v1/descendants  start//tag connection queries
//	GET /v1/connected    point-to-point connection tests
//	GET /v1/query        ranked path expressions (ParseQuery/Evaluator)
//	POST /v1/batch       many queries in one request, one admission slot
//	GET /healthz         readiness
//	GET /statsz          backend + server statistics
//	GET /metrics         Prometheus text format
//
// Every query endpoint runs behind a bounded admission semaphore (excess
// load is shed immediately with 429 instead of queueing), a per-request
// deadline (the context's Done channel is threaded into the evaluator's
// priority-queue loop, so a timed-out query stops promptly and returns what
// it found, flagged as truncated), and request-scoped result limits.
// Admission, deadlines, request IDs, the access log, parameter parsing,
// result rendering, batch execution and error shapes exist once, here; a
// backend contributes only its answers, its own response fields and its
// own /healthz, /statsz and /metrics sections.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/flix"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// Config tunes the serving layer.  The zero value is usable; the
// constructors fill in the defaults below.
type Config struct {
	// MaxInFlight bounds the number of concurrently evaluating queries;
	// requests beyond it are shed with 429.  Default 64.
	MaxInFlight int
	// DefaultTimeout is the per-request deadline when the client does not
	// pass ?timeout=.  Default 2s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines.  Default 30s.
	MaxTimeout time.Duration
	// DefaultLimit is the result limit when the client does not pass ?k=.
	// Default 100.
	DefaultLimit int
	// MaxLimit clamps client-requested result limits.  Default 10000.
	MaxLimit int
	// MaxBatch caps the number of queries in one POST /v1/batch request.
	// Default 256.
	MaxBatch int
	// CacheSize is the QueryCache capacity fronting /v1/descendants
	// (number of distinct cached queries).  Default 1024; negative
	// disables the cache.  Local backend only.
	CacheSize int
	// Logger receives one access-log line per request and the slow-query
	// log.  Nil disables both.
	Logger *log.Logger
	// SlowQueryThreshold enables the slow-query log: sampled query
	// requests that evaluate longer than this are logged with their full
	// trace summary.  0 disables.
	SlowQueryThreshold time.Duration
	// SlowQuerySample traces 1 in N admitted query requests for the
	// slow-query log (1 = trace every request).  Sampling keeps the
	// tracing overhead off most requests while still catching recurring
	// offenders.  Default 1.
	SlowQuerySample int
	// TraceEventLimit caps the raw event list of each request trace
	// (?trace=1 and slow-query tracing).  Default obs.DefaultEventLimit.
	// Local backend only.
	TraceEventLimit int
	// Shard, when non-nil, runs the server as one shard of a
	// scatter-gather cluster: /v1/shard/eval and /v1/shard/links are
	// registered, /healthz reports the shard's ring position and
	// decomposition fingerprint, and each generation carries the
	// ownership mask the ring assigns to this shard.  Local backend only.
	Shard *ShardConfig
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DefaultLimit <= 0 {
		c.DefaultLimit = 100
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 10000
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.SlowQuerySample <= 0 {
		c.SlowQuerySample = 1
	}
	return c
}

// backend is the engine behind the front end: the local index generation
// (localBackend) or a shard.Router's scatter-gather (routedBackend).
type backend interface {
	// refuse returns the status and message a query is turned away with
	// before admission — 503 while the backend is not ready, 429 when it
	// is saturated — or 0 to admit it.
	refuse() (int, string)
	// open starts an admitted request under ctx, its deadline.  sampled
	// asks for a trace for the slow-query log.
	open(ctx context.Context, ri *reqInfo, sampled bool) view
	// routes registers the backend's own endpoints.
	routes(mux *http.ServeMux)
	// healthz adds the backend's fields, "status" among them, to the
	// /healthz body and reports readiness.
	healthz(body map[string]any) bool
	// statsz returns the /statsz document.
	statsz() map[string]any
	// metricPrefix names the front end's /metrics series; metrics writes
	// the backend's own.
	metricPrefix() string
	metrics(p func(format string, args ...any))
}

// view is one admitted request's handle on its backend.
type view interface {
	descendants(start xmlgraph.NodeID, tag string, opts flix.Options, emit flix.Emit)
	connected(from, to xmlgraph.NodeID, opts flix.Options) (int32, bool)
	// index is what ranked queries evaluate over.
	index() query.Backend
	// batchKey returns a descendants batch item's grouping key (the start
	// node's meta document) and whether the query cache holds its answer.
	batchKey(start xmlgraph.NodeID, tag string) (meta int32, hit bool)
	// partials counts the partial answers the backend gave the request so
	// far; a batch item that raised it is truncated.
	partials() int
	// finish adds the backend's own fields and headers, and the ?trace=1
	// trace, to a single-query response; results and st (nil outside
	// /v1/query) describe the answer to the trace.
	finish(w http.ResponseWriter, resp map[string]any, results int64, st *query.EvalStats)
	// finishBatch adds the backend's own fields and headers to a batch
	// response.
	finishBatch(w http.ResponseWriter, resp *shard.BatchResponse)
}

// Server is the HTTP front end over one backend.
type Server struct {
	coll *xmlgraph.Collection
	onto *ontology.Ontology
	cfg  Config
	be   backend

	sem     chan struct{}
	started time.Time

	// latency holds one lock-free histogram per endpoint (per-strategy
	// histograms live in the local backend's generation).  The map is built
	// by the constructor and read-only afterwards, so concurrent handler
	// access needs no lock.
	latency map[string]*obs.Histogram

	// Serving counters (engine-level counters live in the backend).
	reqDescendants atomic.Int64
	reqConnected   atomic.Int64
	reqQuery       atomic.Int64
	reqBatch       atomic.Int64
	shed           atomic.Int64
	notReady       atomic.Int64
	timeouts       atomic.Int64
	clientErrors   atomic.Int64
	slowQueries    atomic.Int64

	// reqSeq numbers requests for the X-Flix-Request-Id header; slowSeq
	// counts admitted requests for slow-query trace sampling.
	reqSeq  atomic.Uint64
	slowSeq atomic.Uint64

	// queryHook, when set, runs after admission and before evaluation.
	// It is a test seam for saturating the semaphore deterministically.
	queryHook func()
	// batchItemHook, when set, runs before each executed /v1/batch item
	// with its request position.  It is a test seam for expiring the batch
	// deadline at a chosen point in the execution order.
	batchItemHook func(int)

	// The local backend's state: the serving generation (nil until the
	// first Install; readiness answers 503 meanwhile), the re-optimizer
	// and, in shard mode, the ring.  A server built by NewRouted leaves
	// all of it zero.
	gen          atomic.Pointer[generation]
	genSeq       atomic.Uint64
	swaps        atomic.Int64
	reindexer    atomic.Pointer[reindexerBox]
	ring         *shard.Ring
	reqShardEval atomic.Int64
	tracedEvals  atomic.Int64
}

// newServer returns a front end with no backend yet.
func newServer(coll *xmlgraph.Collection, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		coll:    coll,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		started: time.Now(),
		latency: map[string]*obs.Histogram{
			"descendants": new(obs.Histogram),
			"connected":   new(obs.Histogram),
			"query":       new(obs.Histogram),
			"batch":       new(obs.Histogram),
		},
	}
}

// SetOntology installs the tag-similarity ontology used by /v1/query for
// ~tag expansion.  Must be called before Handler.
func (s *Server) SetOntology(o *ontology.Ontology) { s.onto = o }

// InFlight returns the number of queries currently evaluating.
func (s *Server) InFlight() int { return len(s.sem) }

// Handler returns the server's HTTP handler: the API mux wrapped in the
// request-ID and access-logging middlewares (the ID middleware is
// outermost so every log line and response carries an ID).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/descendants", s.admit("descendants", &s.reqDescendants, s.handleDescendants))
	mux.HandleFunc("/v1/connected", s.admit("connected", &s.reqConnected, s.handleConnected))
	mux.HandleFunc("/v1/query", s.admit("query", &s.reqQuery, s.handleQuery))
	mux.HandleFunc("/v1/batch", s.admit("batch", &s.reqBatch, s.handleBatch))
	s.be.routes(mux)
	return s.withRequestID(s.logged(mux))
}

// reqInfo is the per-request observability state, carried in the request
// context from the ID middleware through admission into the handler.
type reqInfo struct {
	id          string
	endpoint    string
	strategy    string      // set by the local backend once the start node is known
	gen         *generation // local backend: serving generation captured at admission
	trace       *obs.Trace  // local backend: non-nil when traced (?trace=1 or slow-query sample)
	traceWanted bool        // client asked for the trace in the response
}

type ctxKey int

const reqInfoKey ctxKey = 0

// reqInfoFrom returns the request's reqInfo.  The fallback covers handlers
// invoked without the middleware (direct tests); it keeps nil-checks out of
// every call site.
func reqInfoFrom(ctx context.Context) *reqInfo {
	if ri, ok := ctx.Value(reqInfoKey).(*reqInfo); ok {
		return ri
	}
	return &reqInfo{}
}

// withRequestID carries each request's ID in the context and exposes it as
// the X-Flix-Request-Id response header, so the access log and the
// slow-query log can correlate their lines.  A syntactically valid incoming
// X-Flix-Request-Id is reused instead of replaced: the router stamps its ID
// onto every shard RPC a query fans out into, and reuse is what makes one
// query traceable across the whole cluster's logs.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := shard.SanitizeRequestID(r.Header.Get(shard.RequestIDHeader))
		if id == "" {
			id = fmt.Sprintf("%08x", s.reqSeq.Add(1))
		}
		ri := &reqInfo{id: id}
		w.Header().Set(shard.RequestIDHeader, ri.id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqInfoKey, ri)))
	})
}

// admit wraps a query handler with the backend's readiness and saturation
// gate, the admission semaphore, the per-request deadline, and the latency
// observation.  When the in-flight limit is hit the request is shed
// immediately with 429 — shedding beats queueing under overload because a
// queued query's deadline keeps ticking while it waits.
func (s *Server) admit(endpoint string, counter *atomic.Int64, h func(http.ResponseWriter, *http.Request, context.Context, view)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		counter.Add(1)
		// Refused requests do not consume the semaphore.
		if code, msg := s.be.refuse(); code != 0 {
			if code == http.StatusServiceUnavailable {
				s.notReady.Add(1)
			} else {
				s.shed.Add(1)
			}
			w.Header().Set("Retry-After", "1")
			s.fail(w, code, msg)
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			s.fail(w, http.StatusTooManyRequests, "server at capacity, retry later")
			return
		}
		if s.queryHook != nil {
			s.queryHook()
		}
		timeout, err := s.timeoutFor(r)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err.Error())
			return
		}
		ri := reqInfoFrom(r.Context())
		ri.endpoint = endpoint
		ri.traceWanted = boolParam(r.URL.Query().Get("trace"))
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		v := s.be.open(ctx, ri, s.sampleSlow())
		t0 := time.Now()
		h(w, r, ctx, v)
		s.observe(ri, time.Since(t0))
	}
}

// sampleSlow reports whether this admitted request should carry a trace for
// the slow-query log: 1 in SlowQuerySample requests while a threshold is
// configured.
func (s *Server) sampleSlow() bool {
	if s.cfg.SlowQueryThreshold <= 0 {
		return false
	}
	return s.slowSeq.Add(1)%uint64(s.cfg.SlowQuerySample) == 0
}

// observe records one finished request into the per-endpoint and
// per-strategy latency histograms and, past the threshold, the slow-query
// log.
func (s *Server) observe(ri *reqInfo, elapsed time.Duration) {
	if h := s.latency[ri.endpoint]; h != nil {
		h.Observe(elapsed)
	}
	if ri.strategy != "" && ri.gen != nil {
		if h := ri.gen.stratLatency[ri.strategy]; h != nil {
			h.Observe(elapsed)
		}
	}
	if s.cfg.SlowQueryThreshold > 0 && elapsed >= s.cfg.SlowQueryThreshold {
		s.slowQueries.Add(1)
		if ri.trace != nil && s.cfg.Logger != nil {
			sum := ri.trace.Summary(false)
			b, err := json.Marshal(sum)
			if err != nil {
				b = []byte("{}")
			}
			s.cfg.Logger.Printf("slow-query id=%s endpoint=%s strategy=%s elapsed=%s trace=%s",
				ri.id, ri.endpoint, ri.strategy, elapsed.Round(time.Microsecond), b)
		}
	}
}

// expired reports whether the request deadline passed during handling.  It
// also compares against the wall clock: a deadline can pass after the last
// evaluator check but before the timer goroutine closes Done, and the
// response flag should not depend on that race.
func expired(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	dl, ok := ctx.Deadline()
	return ok && !time.Now().Before(dl)
}

// timedOut is expired, counting the request as timed out.
func (s *Server) timedOut(ctx context.Context) bool {
	if !expired(ctx) {
		return false
	}
	s.timeouts.Add(1)
	return true
}

// timeoutFor derives the request deadline from ?timeout= (a Go duration
// such as 500ms), clamped to cfg.MaxTimeout.
func (s *Server) timeoutFor(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q (want a positive duration like 500ms)", raw)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// limitFor derives the result limit from ?k=, clamped to cfg.MaxLimit.
func (s *Server) limitFor(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("k")
	if raw == "" {
		return s.cfg.DefaultLimit, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 {
		return 0, fmt.Errorf("bad k %q (want a positive integer)", raw)
	}
	if k > s.cfg.MaxLimit {
		k = s.cfg.MaxLimit
	}
	return k, nil
}

// resolveNode turns a ?start= / ?from= value into a node: a document name
// resolves to that document's root, anything else must be a numeric NodeID.
func (s *Server) resolveNode(raw string) (xmlgraph.NodeID, error) {
	if raw == "" {
		return xmlgraph.InvalidNode, fmt.Errorf("missing node parameter")
	}
	if d, ok := s.coll.DocByName(raw); ok {
		return s.coll.Doc(d).Root, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 || n >= s.coll.NumNodes() {
		return xmlgraph.InvalidNode, fmt.Errorf("unknown node %q (want a document name or a node id < %d)", raw, s.coll.NumNodes())
	}
	return xmlgraph.NodeID(n), nil
}

// nodeJSON is the wire form of one result element.
type nodeJSON struct {
	Node xmlgraph.NodeID `json:"node"`
	Tag  string          `json:"tag"`
	Doc  string          `json:"doc"`
	Text string          `json:"text,omitempty"`
	Dist int32           `json:"dist"`
}

func (s *Server) nodeJSON(n xmlgraph.NodeID, dist int32) nodeJSON {
	return nodeJSON{
		Node: n,
		Tag:  s.coll.Tag(n),
		Doc:  s.coll.Doc(s.coll.DocOf(n)).Name,
		Text: snippet(s.coll.Node(n).Text),
		Dist: dist,
	}
}

// snippet compresses element text for the wire.
func snippet(t string) string {
	t = strings.Join(strings.Fields(t), " ")
	if len(t) > 80 {
		t = t[:77] + "..."
	}
	return t
}

// handleDescendants answers GET /v1/descendants?start=<doc|node>&tag=<tag>
// [&k=][&maxdist=][&self=1][&order=exact][&timeout=].  An empty tag is the
// wildcard start//*.
func (s *Server) handleDescendants(w http.ResponseWriter, r *http.Request, ctx context.Context, v view) {
	q := r.URL.Query()
	start, err := s.resolveNode(q.Get("start"))
	if err != nil {
		s.fail(w, http.StatusNotFound, "start: "+err.Error())
		return
	}
	k, err := s.limitFor(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	maxDist, err := intParam(q.Get("maxdist"), 0)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad maxdist: "+err.Error())
		return
	}
	opts := flix.Options{
		MaxResults:  k,
		MaxDist:     int32(maxDist),
		IncludeSelf: boolParam(q.Get("self")),
		ExactOrder:  q.Get("order") == "exact",
		Cancel:      ctx.Done(),
		Tracer:      reqInfoFrom(ctx).trace,
	}
	results := make([]nodeJSON, 0, 16)
	v.descendants(start, q.Get("tag"), opts, func(res flix.Result) bool {
		results = append(results, s.nodeJSON(res.Node, res.Dist))
		return true
	})
	resp := map[string]any{
		"results":  results,
		"count":    len(results),
		"timedOut": s.timedOut(ctx),
	}
	v.finish(w, resp, int64(len(results)), nil)
	s.ok(w, resp)
}

// handleConnected answers GET /v1/connected?from=<doc|node>&to=<doc|node>
// [&maxdist=][&timeout=].
func (s *Server) handleConnected(w http.ResponseWriter, r *http.Request, ctx context.Context, v view) {
	q := r.URL.Query()
	from, err := s.resolveNode(q.Get("from"))
	if err != nil {
		s.fail(w, http.StatusNotFound, "from: "+err.Error())
		return
	}
	to, err := s.resolveNode(q.Get("to"))
	if err != nil {
		s.fail(w, http.StatusNotFound, "to: "+err.Error())
		return
	}
	maxDist, err := intParam(q.Get("maxdist"), 0)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad maxdist: "+err.Error())
		return
	}
	dist, ok := v.connected(from, to, flix.Options{MaxDist: int32(maxDist), Cancel: ctx.Done(), Tracer: reqInfoFrom(ctx).trace})
	resp := map[string]any{"connected": ok, "timedOut": s.timedOut(ctx)}
	var n int64
	if ok {
		resp["dist"] = dist
		n = 1
	}
	v.finish(w, resp, n, nil)
	s.ok(w, resp)
}

// handleQuery answers GET /v1/query?q=<expr>[&k=][&timeout=]: ranked path
// expressions with structural and (when an ontology is installed) semantic
// vagueness.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, ctx context.Context, v view) {
	expr := r.URL.Query().Get("q")
	if expr == "" {
		s.fail(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	k, err := s.limitFor(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	pq, err := query.Parse(expr)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	eval := &query.Evaluator{
		Index:      v.index(),
		Ontology:   s.onto,
		MaxResults: k,
		Cancel:     ctx.Done(),
		Tracer:     reqInfoFrom(ctx).trace,
	}
	matches := eval.EvaluateTopK(pq, k)
	type matchJSON struct {
		nodeJSON
		Score   float64 `json:"score"`
		PathLen int32   `json:"pathLen"`
	}
	out := make([]matchJSON, 0, len(matches))
	for _, m := range matches {
		out = append(out, matchJSON{
			nodeJSON: s.nodeJSON(m.Node, m.PathLen),
			Score:    m.Score,
			PathLen:  m.PathLen,
		})
	}
	resp := map[string]any{
		"results":   out,
		"count":     len(out),
		"timedOut":  s.timedOut(ctx),
		"truncated": eval.Stats.Truncated,
	}
	v.finish(w, resp, int64(len(out)), &eval.Stats)
	s.ok(w, resp)
}

// handleHealthz reports readiness, not just liveness: a process whose
// backend cannot answer a single query yet (no index generation, no shard
// quorum) is alive, but a load balancer must not send it traffic — hence
// 503 until the backend is ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"inFlight":    s.InFlight(),
		"maxInFlight": s.cfg.MaxInFlight,
		"uptime":      time.Since(s.started).Round(time.Millisecond).String(),
	}
	ready := s.be.healthz(body)
	body["ready"] = ready
	if !ready {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	s.ok(w, body)
}

// handleStatsz reports the backend's statistics and the serving counters
// in one JSON document.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.ok(w, s.be.statsz())
}

// ok writes a 200 JSON response.  The encoding is compact: indentation
// cost more CPU than evaluation on the served descendants path.
func (s *Server) ok(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// fail writes an error JSON response.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	if code >= 400 && code < 500 && code != http.StatusTooManyRequests {
		s.clientErrors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"error": msg}) //nolint:errcheck
}

// statusWriter captures the response code for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// logged is the access-logging middleware.
func (s *Server) logged(next http.Handler) http.Handler {
	if s.cfg.Logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		s.cfg.Logger.Printf("id=%s %s %s %d %s", reqInfoFrom(r.Context()).id,
			r.Method, r.URL.RequestURI(), sw.status, time.Since(t0).Round(time.Microsecond))
	})
}

func intParam(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a non-negative integer", raw)
	}
	return n, nil
}

func boolParam(raw string) bool {
	return raw == "1" || raw == "true"
}
