package shard

import (
	"repro/internal/flix"
	"repro/internal/obs"
	"repro/internal/xmlgraph"
)

// This file defines the wire protocol between the router and the shards,
// and the batch shapes of the one HTTP front end.  Both sides import it
// (internal/server implements the shard endpoints and serves the router),
// so the JSON shapes have exactly one definition.

// RequestIDHeader carries the router's request ID to every shard RPC a
// query fans out into, so one query's hops correlate across the access logs
// and traces of the whole cluster.
const RequestIDHeader = "X-Flix-Request-Id"

// FailedShardsHeader lists the shards (comma-separated IDs) whose frontier
// batches were dropped after retries; it accompanies a partial response.
const FailedShardsHeader = "X-Flix-Shards-Failed"

// TraceHeader ("1" when set) asks a shard to evaluate under a bounded
// obs.Trace and return a TraceFragment in the response.  It travels beside
// RequestIDHeader so intermediaries can sample traces without parsing
// bodies; EvalRequest.Trace is the authoritative in-body copy.
const TraceHeader = "X-Flix-Trace"

// EvalRequest is the body of POST /v1/shard/eval: one batch of frontier
// entries to expand within the shard's owned meta documents.
type EvalRequest struct {
	// Entries is the frontier batch (query starts or re-dispatched hops).
	Entries []flix.FrontierEntry `json:"entries"`
	// Tag is the target element name; empty means the wildcard.
	Tag string `json:"tag"`
	// MaxDist prunes paths longer than this many edges (0 = unlimited).
	MaxDist int32 `json:"maxDist,omitempty"`
	// Trace asks the shard to evaluate under a bounded obs.Trace and
	// attach a TraceFragment to the response.  The untraced path is the
	// default and stays allocation-free on the shard.
	Trace bool `json:"trace,omitempty"`
}

// EvalResponse is the shard's answer: local matches plus the frontier
// entries that crossed into foreign meta documents.
type EvalResponse struct {
	// Results are matching elements in owned meta documents, minimum
	// distance per node, sorted by (dist, node).
	Results []flix.FrontierEntry `json:"results"`
	// Hops are frontier entries landing in foreign meta documents, minimum
	// distance per node, sorted by (dist, node).
	Hops []flix.FrontierEntry `json:"hops"`
	// Generation is the shard's serving index generation.
	Generation uint64 `json:"generation"`
	// Fingerprint is the shard's meta-document decomposition fingerprint
	// (hex); the router drops responses that disagree with the topology.
	Fingerprint string `json:"fingerprint"`
	// Truncated reports that the shard's evaluation was cut short (RPC
	// deadline); the router marks the query partial.
	Truncated bool `json:"truncated,omitempty"`
	// Pops, Entries and LinkHops are the shard-side evaluation effort.
	Pops     int64 `json:"pops"`
	Entries  int64 `json:"entries"`
	LinkHops int64 `json:"linkHops"`
	// Trace is the shard's distributed-trace fragment, present only when
	// EvalRequest.Trace (or the X-Flix-Trace header) asked for one.
	Trace *obs.TraceFragment `json:"trace,omitempty"`
}

// LinksResponse is the body of GET /v1/shard/links: the shard's view of the
// cluster topology — the link-export endpoint the router bootstraps from.
type LinksResponse struct {
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	// Shard, Shards and VNodes echo the shard's ring parameters; the router
	// refuses shards whose ring disagrees with its own.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	VNodes int `json:"vnodes"`
	// NumMetas and NumNodes describe the decomposition.
	NumMetas int `json:"numMetas"`
	NumNodes int `json:"numNodes"`
	// OwnedMetas counts the meta documents this shard owns.
	OwnedMetas int `json:"ownedMetas"`
	// MetaOf is the node→meta assignment (omitted with ?summary=1).
	MetaOf []int32 `json:"metaOf,omitempty"`
	// LinkCounts is the per-meta runtime out-link count (omitted with
	// ?summary=1).
	LinkCounts []int32 `json:"linkCounts,omitempty"`
}

// Batch item statuses.  Every item in a BatchResponse carries exactly one:
// evaluated items are "ok", items the server looked at but could not run
// (parse error, unknown start node) are "error", and items abandoned when
// the per-batch deadline expired are "skipped".
const (
	BatchOK      = "ok"
	BatchError   = "error"
	BatchSkipped = "skipped"
)

// BatchQuery is one query inside a POST /v1/batch request: a ranked path
// expression when Q is set, otherwise a descendants connection query
// described by Start and Tag.
type BatchQuery struct {
	// Q is a ranked path expression (the /v1/query ?q= syntax).
	Q string `json:"q,omitempty"`
	// Start is the descendants query's start element: a document name or a
	// numeric node ID, exactly like /v1/descendants ?start=.
	Start string `json:"start,omitempty"`
	// Tag is the descendants target element name; empty is the wildcard.
	Tag string `json:"tag,omitempty"`
	// K bounds this item's results (0 = the request default, then the
	// server default).
	K int `json:"k,omitempty"`
	// MaxDist and IncludeSelf mirror the /v1/descendants parameters.
	MaxDist     int32 `json:"maxDist,omitempty"`
	IncludeSelf bool  `json:"self,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: many queries answered in one
// round trip under one admission slot and one deadline.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
	// K is the default per-item result bound (0 = server default).
	K int `json:"k,omitempty"`
}

// BatchResult is one result element of a batch item: the /v1/descendants
// node shape plus the ranked-query score fields.
type BatchResult struct {
	Node xmlgraph.NodeID `json:"node"`
	Tag  string          `json:"tag"`
	Doc  string          `json:"doc"`
	Text string          `json:"text,omitempty"`
	// Dist is the connection distance (descendants items) or the matched
	// path length (ranked items).
	Dist int32 `json:"dist"`
	// Score and PathLen are set on ranked items only.
	Score   float64 `json:"score,omitempty"`
	PathLen int32   `json:"pathLen,omitempty"`
}

// BatchItem is one item's answer, in request order.
type BatchItem struct {
	Status  string        `json:"status"`
	Error   string        `json:"error,omitempty"`
	Results []BatchResult `json:"results,omitempty"`
	Count   int           `json:"count"`
	// Truncated reports that this item's evaluation was cut short by the
	// batch deadline: a sound but possibly incomplete answer.
	Truncated bool `json:"truncated,omitempty"`
	// CacheHit reports that a descendants item was answered from the query
	// cache (single-node server only; the router has no cache).
	CacheHit bool `json:"cacheHit,omitempty"`
}

// BatchResponse is the body of a POST /v1/batch answer.  Items appear in
// request order regardless of the cache-aware order they executed in.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	// Completed counts items actually examined ("ok" or "error"); the
	// remaining len(Results)-Completed items were skipped at the deadline.
	Completed int `json:"completed"`
	// Partial reports that the deadline expired before every item ran.
	Partial    bool   `json:"partial,omitempty"`
	TimedOut   bool   `json:"timedOut"`
	Generation uint64 `json:"generation"`
	// FailedShards lists shards that dropped frontier batches during the
	// router's scatter-gather evaluation (router only).
	FailedShards []int `json:"failedShards,omitempty"`
}

// HealthResponse is the subset of a shard's /healthz the router's prober
// consumes: readiness plus the backpressure signal (inFlight/maxInFlight).
type HealthResponse struct {
	Ready       bool   `json:"ready"`
	Generation  uint64 `json:"generation"`
	InFlight    int    `json:"inFlight"`
	MaxInFlight int    `json:"maxInFlight"`
	Shard       *struct {
		ID          int    `json:"id"`
		Count       int    `json:"count"`
		Fingerprint string `json:"fingerprint"`
	} `json:"shard"`
}
