package main

// Input preparation: the corpus (the repository's DBLP generator, seeded),
// the in-process collection the oracle runs on, the UnconnectedHOPI v2
// snapshot the hopi-mapped workload serves, and the request sequence with
// every request's exact answer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"

	flix "repro"
)

type opKind int

const (
	opDesc opKind = iota
	opConn
	opQuery
	opBatch
	numOps
)

var opNames = [numOps]string{"descendants", "connected", "query", "batch"}

// descTags are the descendants target tags; "" is the wildcard start//*.
var descTags = []string{"", "author", "title", "cite"}

// rankedExprs are the ranked /v1/query expressions (k = 10): two-step
// paths //a//b on dblp-read, whose oracle is one multi-source BFS.  On the
// mapped HOPI index a two-step ranked query takes about 200 ms, so
// hopi-mapped sends single-step expressions that keep ranked scans a small
// share of its work.
var rankedExprs = map[bool][]string{
	true:  {"//article//author", "//inproceedings//cite", "//article//title", "//inproceedings//author"},
	false: {"//year", "//title"},
}

const (
	rankedK    = 10
	batchK     = 10
	rootPool   = 512  // Zipf-drawn descendants start roots
	elemPool   = 8192 // uniformly drawn descendants start elements
	keyStrata  = 256  // strata of the elemPool × descTags keys
	pairStrata = 16   // strata of the connection pairs
	pairPool   = 512  // connection-test pairs
	zipfS      = 1.1
	mixBlock   = 20 // requests per block holding the mix exactly
	maxReqSeq  = 60000
	snapshotFn = "hopi-5000.flix"
)

// descItem is one descendants query with its oracle.
type descItem struct {
	node  flix.NodeID
	start string // ?start= value: a document name or a node ID
	tag   string
	k     int
	rs    *reachSet
}

// request is one API call with its exact answer.
type request struct {
	op    opKind
	path  string // URL path and query string
	body  []byte // POST body (batch)
	desc  descItem
	items []descItem // batch
	from  flix.NodeID
	to    flix.NodeID
	want  int32 // connection oracle: BFS distance, -1 unreachable
	query *flix.Query
	ra    *rankedAnswer
}

type corpus struct {
	dir       string
	coll      *flix.Collection
	roots     []flix.NodeID
	snapshot  string // hopi-mapped: the compressed v2 snapshot
	snapBytes int64
}

// corpusSeed fixes the generated collection, as the paper fixes its DBLP
// extract: with a corpus drawn per run seed, the cost of ranked queries
// moved by up to 30 % between corpora, and the latency tails of every
// request queued behind them moved with it, swamping any change under test.
// The run seed draws the request sequence.
const corpusSeed = 42

// generate writes the DBLP corpus with the repository's generator.
func generate(bin, dir string, seed int64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	out, err := exec.Command(filepath.Join(bin, "dblpgen"), "-out", dir, "-seed", strconv.FormatInt(seed, 10)).CombinedOutput()
	if err != nil {
		return fmt.Errorf("dblpgen: %v: %s", err, out)
	}
	return nil
}

// load parses the corpus in-process.
func load(dir string) (*flix.Collection, error) {
	l := flix.NewLoader()
	if err := l.LoadDir(dir); err != nil {
		return nil, err
	}
	return l.Finish()
}

// hopiConfig is the paper's HOPI-5000 configuration.
func hopiConfig() flix.Config {
	return flix.Config{Kind: flix.UnconnectedHOPI, PartitionSize: 5000}
}

// writeSnapshot writes ix as a compressed v2 snapshot and returns its
// size.
func writeSnapshot(ix *flix.Index, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := writeCompressed(f, ix.WriteSnapshotV2With)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// writeCompressed calls WriteSnapshotV2With with Compress set.  The
// options type is not re-exported by the root package, so it is named
// through the method's own signature.
func writeCompressed[O any](w io.Writer, write func(io.Writer, O) (int64, error)) (int64, error) {
	var opts O
	reflect.ValueOf(&opts).Elem().FieldByName("Compress").SetBool(true)
	return write(w, opts)
}

// sequence is the run's request list; the load generator consumes it in
// order, wrapping around if the closed loop outruns it.
type sequence struct {
	reqs    []request
	reaches int // distinct reach sets computed
}

// buildSequence draws n requests for the workload from seed.
func buildSequence(w workload, c *corpus, seed int64, n int) (*sequence, error) {
	coll := c.coll
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	// The pools requests draw from (hot roots, start elements, connection
	// pairs) belong to the corpus and are fixed with it; the run seed draws
	// the requests from them.
	pools := rand.New(rand.NewSource(corpusSeed))
	b := newBFS(coll)
	reach := map[flix.NodeID]*reachSet{}
	reachOf := func(n flix.NodeID) *reachSet {
		rs := reach[n]
		if rs == nil {
			rs = b.reach(n)
			reach[n] = rs
		}
		return rs
	}
	isRoot := make([]bool, coll.NumNodes())
	for _, rt := range c.roots {
		isRoot[rt] = true
	}
	rootName := func(n flix.NodeID) string { return coll.Doc(coll.DocOf(n)).Name }

	// Descendants starts: Zipf-skewed over a seeded permutation of the
	// roots (so part of the load repeats), or uniform over a seeded pool of
	// elements, large enough against the 1,024-entry query cache that
	// repeats are rare and small enough that the oracle fits in memory.
	perm := pools.Perm(len(c.roots))[:min(rootPool, len(c.roots))]
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(perm)-1))
	elems := make([]flix.NodeID, elemPool)
	for i := range elems {
		elems[i] = flix.NodeID(pools.Intn(coll.NumNodes()))
	}
	var nextKey *stratified
	if !w.rootStarts {
		// A uniform start's cost follows the size of its reachable set
		// and its answer count, which span four orders of magnitude; the
		// few starts in the large link-connected component take most of
		// the server's time.  Drawing (element, tag) keys stratified by
		// the sum of the two gives every run, and every stretch of a run,
		// the same share of them.
		proxy := make([]int, len(elems)*len(descTags))
		for i, e := range elems {
			rs := reachOf(e)
			for j, tag := range descTags {
				proxy[i*len(descTags)+j] = len(rs.nodes) + rs.count(tag)
			}
		}
		nextKey = newStratified(r, proxy, keyStrata)
	}
	drawDesc := func(k int) descItem {
		var it descItem
		var start flix.NodeID
		if w.rootStarts {
			start = c.roots[perm[zipf.Uint64()]]
			it.start = rootName(start)
			it.tag = descTags[r.Intn(len(descTags))]
		} else {
			key := nextKey.next()
			start = elems[key/len(descTags)]
			it.start = strconv.Itoa(int(start))
			it.tag = descTags[key%len(descTags)]
		}
		it.k = k
		if k == 0 {
			it.k = w.descK[r.Intn(len(w.descK))]
		}
		it.node = start
		it.rs = reachOf(start)
		return it
	}

	// Connection pairs between document roots: half reachable, the other
	// half unreachable (root-start workloads) or random.
	type pair struct {
		from, to flix.NodeID
		want     int32
	}
	var pairs []pair
	for len(pairs) < pairPool {
		from := c.roots[pools.Intn(len(c.roots))]
		rs := b.reach(from)
		var cands []flix.NodeID
		wantReach := len(pairs)%2 == 0
		if wantReach {
			for _, n := range rs.nodes {
				if isRoot[n] {
					cands = append(cands, n)
				}
			}
		} else if w.unreachableHalf {
			for _, rt := range c.roots {
				if rt != from && rs.shortest(rt) < 0 {
					cands = append(cands, rt)
				}
			}
		} else {
			for len(cands) == 0 {
				if rt := c.roots[pools.Intn(len(c.roots))]; rt != from {
					cands = append(cands, rt)
				}
			}
		}
		if len(cands) == 0 {
			continue
		}
		to := cands[pools.Intn(len(cands))]
		pairs = append(pairs, pair{from: from, to: to, want: rs.shortest(to)})
	}

	exprs := rankedExprs[w.rootStarts]
	ranked := make([]*rankedAnswer, len(exprs))
	parsed := make([]*flix.Query, len(exprs))
	for i, e := range exprs {
		q, err := flix.ParseQuery(e)
		if err != nil {
			return nil, err
		}
		parsed[i] = q
		switch len(q.Steps) {
		case 1:
			ranked[i] = b.ranked("", q.Steps[0].Tag)
		case 2:
			ranked[i] = b.ranked(q.Steps[0].Tag, q.Steps[1].Tag)
		default:
			return nil, fmt.Errorf("ranked expression %q: want one or two steps", e)
		}
	}

	// Reachable and unreachable pairs differ in cost several times over,
	// and the connected p50 falls between the two; drawing pairs stratified
	// by their BFS distance keeps the halves even in every stretch of the
	// sequence.
	dists := make([]int, len(pairs))
	for i, p := range pairs {
		dists[i] = int(p.want)
	}
	nextPair := newStratified(r, dists, pairStrata)
	nextExpr := &cycler{r: r, n: len(exprs)}
	seq := &sequence{reqs: make([]request, n)}
	ops := opBlocks(r, w.mix, n)
	for i := range seq.reqs {
		req := &seq.reqs[i]
		req.op = ops[i]
		switch req.op {
		case opDesc:
			req.desc = drawDesc(0)
			v := url.Values{"start": {req.desc.start}, "k": {strconv.Itoa(req.desc.k)}}
			if req.desc.tag != "" {
				v.Set("tag", req.desc.tag)
			}
			req.path = "/v1/descendants?" + v.Encode()
		case opConn:
			p := pairs[nextPair.next()]
			req.from, req.to, req.want = p.from, p.to, p.want
			req.path = "/v1/connected?" + url.Values{"from": {rootName(p.from)}, "to": {rootName(p.to)}}.Encode()
		case opQuery:
			j := nextExpr.next()
			req.query, req.ra = parsed[j], ranked[j]
			req.path = "/v1/query?" + url.Values{"q": {exprs[j]}, "k": {strconv.Itoa(rankedK)}}.Encode()
		case opBatch:
			type bq struct {
				Start string `json:"start"`
				Tag   string `json:"tag,omitempty"`
			}
			body := struct {
				Queries []bq `json:"queries"`
				K       int  `json:"k"`
			}{K: batchK}
			for j := 0; j < w.batch; j++ {
				it := drawDesc(batchK)
				req.items = append(req.items, it)
				body.Queries = append(body.Queries, bq{Start: it.start, Tag: it.tag})
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return nil, err
			}
			req.body = buf.Bytes()
			req.path = "/v1/batch"
		}
	}
	seq.reaches = len(reach)
	return seq, nil
}

// cycler draws from a pool without replacement, one seeded permutation
// after another, so a run draws every pool entry equally often (±1) and
// its latency tail samples the pool's cost distribution, not the luck of
// a few repeated heavy entries.
type cycler struct {
	r    *rand.Rand
	n    int
	perm []int
}

func (c *cycler) next() int {
	if len(c.perm) == 0 {
		c.perm = c.r.Perm(c.n)
	}
	i := c.perm[0]
	c.perm = c.perm[1:]
	return i
}

// stratified draws keys so that every stretch of draws samples the keys'
// cost distribution evenly: the keys, sorted by a cost proxy, are cut into
// strata of equal size, and each round of draws takes one key from every
// stratum, in a seeded order, each stratum cycling through its own keys.
type stratified struct {
	r      *rand.Rand
	strata [][]int
	cyc    []*cycler
	round  []int
}

func newStratified(r *rand.Rand, proxy []int, n int) *stratified {
	keys := make([]int, len(proxy))
	for i := range keys {
		keys[i] = i
	}
	sort.SliceStable(keys, func(a, b int) bool { return proxy[keys[a]] < proxy[keys[b]] })
	s := &stratified{r: r}
	for i := 0; i < n; i++ {
		st := keys[i*len(keys)/n : (i+1)*len(keys)/n]
		s.strata = append(s.strata, st)
		s.cyc = append(s.cyc, &cycler{r: r, n: len(st)})
	}
	return s
}

func (s *stratified) next() int {
	if len(s.round) == 0 {
		s.round = s.r.Perm(len(s.strata))
	}
	i := s.round[0]
	s.round = s.round[1:]
	return s.strata[i][s.cyc[i].next()]
}

// opBlocks lays out n operations in blocks of mixBlock requests that each
// hold the mix exactly, shuffled within the block: every stretch of the
// sequence carries the same share of expensive operations, at random
// spacing.  (Spacing them evenly instead lines ranked queries up at a
// period shorter than their service time, and the queue they build on the
// two connections swamps every tail.)
func opBlocks(r *rand.Rand, mix [numOps]float64, n int) []opKind {
	var block []opKind
	for op := opKind(0); op < numOps; op++ {
		for j := 0; j < int(math.Round(mix[op]*mixBlock)); j++ {
			block = append(block, op)
		}
	}
	out := make([]opKind, 0, n+len(block))
	for len(out) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// documentRoots lists every document's root element.
func documentRoots(c *flix.Collection) []flix.NodeID {
	roots := make([]flix.NodeID, c.NumDocs())
	for d := range roots {
		roots[d] = c.Doc(flix.DocID(d)).Root
	}
	return roots
}
