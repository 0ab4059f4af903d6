package server

// POST /v1/batch: many queries answered in one round trip under one
// admission slot and one deadline.  The motivating workload is the client
// that expands a document set or a dashboard refresh into dozens of small
// connection and ranked queries; issuing them one request each pays the
// admission and HTTP overhead per query and — worse — lets a load spike
// shed half of a logically atomic set.
//
// The handler reorders execution to make the deadline go further without
// changing any answer: descendants items already in the query cache run
// first (they cost microseconds and cannot miss the deadline), cache
// misses run grouped by their start node's meta document (consecutive
// misses traverse the same index structures while they are hot), and
// ranked queries run grouped by their first step's tag.  Items appear in
// the response in request order regardless.  When the deadline expires the
// items already examined are returned as a completed prefix — the response
// stays HTTP 200 with "partial": true and the remainder marked "skipped".
// The routed backend has no query cache, so there every descendants item
// is a miss, grouped by meta document (consecutive gathers fan out to the
// same owning shard).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/flix"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/xmlgraph"
)

// maxBatchBody bounds the /v1/batch request body (1 MiB).
const maxBatchBody = 1 << 20

// batchPlanItem is one executable batch entry: a parsed, resolved query
// plus the keys the cache-aware ordering sorts by.
type batchPlanItem struct {
	idx int // request position
	k   int

	// Ranked items.
	ranked bool
	q      *query.Query
	qTag   string // first step's tag: the anchor grouping key

	// Descendants items.
	start   xmlgraph.NodeID
	tag     string
	maxDist int32
	self    bool
	hit     bool  // answerable from the query cache
	meta    int32 // start's meta document: the miss grouping key
}

// handleBatch answers POST /v1/batch.  The body is a shard.BatchRequest;
// the response a shard.BatchResponse with one item per query, in request
// order.  Per-item failures (parse errors, unknown start nodes) do not
// fail the batch: the item carries status "error" and the rest proceed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, ctx context.Context, v view) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST a JSON batch body to /v1/batch")
		return
	}
	var req shard.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, http.StatusBadRequest, `empty batch: want {"queries": [...]}`)
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.fail(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds the limit of %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	items := make([]shard.BatchItem, len(req.Queries))
	plan := make([]batchPlanItem, 0, len(req.Queries))
	for i, bq := range req.Queries {
		it, err := s.planBatchItem(v, i, bq, req.K)
		if err != nil {
			items[i] = shard.BatchItem{Status: shard.BatchError, Error: err.Error()}
			continue
		}
		plan = append(plan, it)
	}
	orderPlan(plan)

	// One evaluator for every ranked item in the batch: EvaluateTopK pools
	// its scratch, so consecutive ranked queries reuse the same heaps and
	// stream buffers instead of rewarming the pool per item.
	eval := &query.Evaluator{Index: v.index(), Ontology: s.onto, Cancel: ctx.Done(), Tracer: reqInfoFrom(ctx).trace}
	executed := 0
	for _, it := range plan {
		if expired(ctx) {
			break
		}
		if s.batchItemHook != nil {
			s.batchItemHook(it.idx)
		}
		items[it.idx] = s.runBatchItem(ctx, v, eval, it)
		executed++
	}
	for _, it := range plan[executed:] {
		items[it.idx] = shard.BatchItem{Status: shard.BatchSkipped, Error: "batch deadline expired"}
	}

	resp := shard.BatchResponse{
		Results:   items,
		Completed: len(items) - (len(plan) - executed),
		Partial:   executed < len(plan),
		TimedOut:  s.timedOut(ctx),
	}
	v.finishBatch(w, &resp)
	s.ok(w, resp)
}

// planBatchItem parses and resolves one batch entry, computing its result
// bound and ordering keys.  Errors here become per-item "error" statuses,
// not batch failures.
func (s *Server) planBatchItem(v view, i int, bq shard.BatchQuery, defK int) (batchPlanItem, error) {
	it := batchPlanItem{idx: i, k: bq.K}
	if it.k <= 0 {
		it.k = defK
	}
	if it.k <= 0 {
		it.k = s.cfg.DefaultLimit
	}
	if it.k > s.cfg.MaxLimit {
		it.k = s.cfg.MaxLimit
	}
	if bq.Q != "" {
		pq, err := query.Parse(bq.Q)
		if err != nil {
			return it, err
		}
		it.ranked = true
		it.q = pq
		it.qTag = pq.Steps[0].Tag
		return it, nil
	}
	start, err := s.resolveNode(bq.Start)
	if err != nil {
		return it, fmt.Errorf("start: %v", err)
	}
	if bq.MaxDist < 0 {
		return it, fmt.Errorf("bad maxDist %d (want >= 0)", bq.MaxDist)
	}
	it.start, it.tag, it.maxDist, it.self = start, bq.Tag, bq.MaxDist, bq.IncludeSelf
	it.meta, it.hit = v.batchKey(start, bq.Tag)
	return it, nil
}

// orderPlan sorts executable items into cache-aware execution order:
// cached descendants first, then misses grouped by the start node's meta
// document, then ranked queries grouped by their first step's tag.  The
// sort is stable, so within each group the request order — and therefore
// the completed prefix a deadline expiry leaves behind — is predictable.
func orderPlan(plan []batchPlanItem) {
	rank := func(it batchPlanItem) int {
		switch {
		case !it.ranked && it.hit:
			return 0
		case !it.ranked:
			return 1
		default:
			return 2
		}
	}
	sort.SliceStable(plan, func(i, j int) bool {
		a, b := plan[i], plan[j]
		ra, rb := rank(a), rank(b)
		if ra != rb {
			return ra < rb
		}
		switch ra {
		case 1:
			return a.meta < b.meta
		case 2:
			return a.qTag < b.qTag
		}
		return false
	})
}

// runBatchItem evaluates one planned item.  Its answer is truncated — sound
// but possibly incomplete — when the deadline cut its evaluation short or
// the backend answered it partially.
func (s *Server) runBatchItem(ctx context.Context, v view, eval *query.Evaluator, it batchPlanItem) shard.BatchItem {
	item := shard.BatchItem{Status: shard.BatchOK, CacheHit: it.hit}
	partials := v.partials()
	if it.ranked {
		matches := eval.EvaluateTopK(it.q, it.k)
		item.Results = make([]shard.BatchResult, 0, len(matches))
		for _, m := range matches {
			br := s.batchResult(m.Node, m.PathLen)
			br.Score = m.Score
			br.PathLen = m.PathLen
			item.Results = append(item.Results, br)
		}
		item.Truncated = eval.Stats.Truncated
	} else {
		opts := flix.Options{
			MaxResults:  it.k,
			MaxDist:     it.maxDist,
			IncludeSelf: it.self,
			Cancel:      ctx.Done(),
			Tracer:      reqInfoFrom(ctx).trace,
		}
		item.Results = make([]shard.BatchResult, 0, 8)
		v.descendants(it.start, it.tag, opts, func(r flix.Result) bool {
			item.Results = append(item.Results, s.batchResult(r.Node, r.Dist))
			return true
		})
		item.Truncated = expired(ctx)
	}
	item.Truncated = item.Truncated || v.partials() > partials
	item.Count = len(item.Results)
	return item
}

// batchResult renders one result element in the batch wire shape.
func (s *Server) batchResult(n xmlgraph.NodeID, dist int32) shard.BatchResult {
	return shard.BatchResult{
		Node: n,
		Tag:  s.coll.Tag(n),
		Doc:  s.coll.Doc(s.coll.DocOf(n)).Name,
		Text: snippet(s.coll.Node(n).Text),
		Dist: dist,
	}
}
