package main

// The response oracle: exact answers computed by breadth-first search over
// the collection graph (child edges and links, unit weight), independent of
// every index, cache and evaluator in the program under test.  Answers are
// computed once, during input preparation; checking a response is a lookup.

import (
	"fmt"
	"sort"

	flix "repro"
)

// bfs is a reusable breadth-first search over a frozen collection.
type bfs struct {
	coll  *flix.Collection
	mark  []uint32 // epoch stamp per node: visited in the current search
	dist  []int32
	queue []flix.NodeID
	epoch uint32
}

func newBFS(c *flix.Collection) *bfs {
	n := c.NumNodes()
	return &bfs{coll: c, mark: make([]uint32, n), dist: make([]int32, n)}
}

// run searches from every source at distance 0 and calls visit for each
// other node the first time it is reached, with its shortest distance.
// Sources themselves are never visited: a node is its own descendant only
// at distance 0, which the query API excludes.
func (b *bfs) run(sources []flix.NodeID, visit func(n flix.NodeID, d int32)) {
	b.epoch++
	b.queue = b.queue[:0]
	for _, s := range sources {
		if b.mark[s] != b.epoch {
			b.mark[s] = b.epoch
			b.dist[s] = 0
			b.queue = append(b.queue, s)
		}
	}
	for head := 0; head < len(b.queue); head++ {
		n := b.queue[head]
		d := b.dist[n] + 1
		b.coll.EachSuccessor(n, func(s flix.NodeID) {
			if b.mark[s] == b.epoch {
				return
			}
			b.mark[s] = b.epoch
			b.dist[s] = d
			b.queue = append(b.queue, s)
			visit(s, d)
		})
	}
}

// reachSet is the exact answer of start//* for one start node: every node
// reachable over at least one edge, with its shortest distance, and the
// number of reachable nodes per tag.
type reachSet struct {
	nodes []flix.NodeID // ascending
	dists []int32       // parallel to nodes
	byTag map[string]int
}

func (b *bfs) reach(start flix.NodeID) *reachSet {
	rs := &reachSet{byTag: make(map[string]int)}
	b.run([]flix.NodeID{start}, func(n flix.NodeID, d int32) {
		rs.nodes = append(rs.nodes, n)
		rs.dists = append(rs.dists, d)
		rs.byTag[b.coll.Tag(n)]++
	})
	sort.Sort(byNode{rs})
	return rs
}

type byNode struct{ *reachSet }

func (s byNode) Len() int           { return len(s.nodes) }
func (s byNode) Less(i, j int) bool { return s.nodes[i] < s.nodes[j] }
func (s byNode) Swap(i, j int) {
	s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i]
	s.dists[i], s.dists[j] = s.dists[j], s.dists[i]
}

// count is the number of reachable nodes named tag ("" = any tag).
func (rs *reachSet) count(tag string) int {
	if tag == "" {
		return len(rs.nodes)
	}
	return rs.byTag[tag]
}

// shortest returns n's BFS distance from the start, or -1 when n is not
// reachable.
func (rs *reachSet) shortest(n flix.NodeID) int32 {
	i := sort.Search(len(rs.nodes), func(i int) bool { return rs.nodes[i] >= n })
	if i < len(rs.nodes) && rs.nodes[i] == n {
		return rs.dists[i]
	}
	return -1
}

// hit is one result element as the API reports it.
type hit struct {
	Node  flix.NodeID `json:"node"`
	Dist  int32       `json:"dist"`
	Score float64     `json:"score"`
}

// checkDescendants verifies one start//tag answer limited to k results.
// The evaluator streams results in approximate distance order and may
// report a distance longer than the shortest one (an upper bound), so the
// check accepts any k-subset of the exact set whose distances are at least
// the BFS distances; an exact-prefix check would reject correct answers.
// It returns how many results carry a longer-than-shortest distance.
func checkDescendants(c *flix.Collection, rs *reachSet, tag string, k int, got []hit) (longer int, err error) {
	if want := min(k, rs.count(tag)); len(got) != want {
		return 0, fmt.Errorf("got %d results, oracle wants min(k=%d, %d) = %d", len(got), k, rs.count(tag), want)
	}
	seen := make(map[flix.NodeID]bool, len(got))
	for _, h := range got {
		if seen[h.Node] {
			return 0, fmt.Errorf("node %d reported twice", h.Node)
		}
		seen[h.Node] = true
		if int(h.Node) < 0 || int(h.Node) >= c.NumNodes() {
			return 0, fmt.Errorf("node %d out of range", h.Node)
		}
		if tag != "" && c.Tag(h.Node) != tag {
			return 0, fmt.Errorf("node %d has tag %q, want %q", h.Node, c.Tag(h.Node), tag)
		}
		d := rs.shortest(h.Node)
		if d < 0 {
			return 0, fmt.Errorf("node %d is not reachable from the start", h.Node)
		}
		if h.Dist < d {
			return 0, fmt.Errorf("node %d reported at distance %d, shorter than the BFS distance %d", h.Node, h.Dist, d)
		}
		if h.Dist > d {
			longer++
		}
	}
	return longer, nil
}

// checkConnected verifies one from→to connection test: the flag must match
// BFS reachability and a reported distance must not undercut the BFS one.
func checkConnected(want int32, connected bool, dist int32) error {
	if connected != (want >= 0) {
		return fmt.Errorf("connected=%v, oracle distance %d", connected, want)
	}
	if connected && dist < want {
		return fmt.Errorf("distance %d is shorter than the BFS distance %d", dist, want)
	}
	return nil
}

// rankedAnswer is the exact match set of a two-step path //a//b: every b
// element reachable over at least one edge from some a element; for a
// single-step path //b (anchorTag "") it is every b element.
type rankedAnswer struct {
	tag   string
	match []bool // indexed by node
	count int
}

func (b *bfs) ranked(anchorTag, tag string) *rankedAnswer {
	ra := &rankedAnswer{tag: tag, match: make([]bool, b.coll.NumNodes())}
	if anchorTag == "" {
		for _, n := range b.coll.NodesByTag(tag) {
			ra.match[n] = true
			ra.count++
		}
		return ra
	}
	b.run(b.coll.NodesByTag(anchorTag), func(n flix.NodeID, _ int32) {
		if b.coll.Tag(n) == tag {
			ra.match[n] = true
			ra.count++
		}
	})
	return ra
}

// checkRanked verifies one ranked top-k answer: every match is a reachable
// element with the final step's tag, reported once, scores never increase,
// and the count is min(k, oracle count).
func checkRanked(ra *rankedAnswer, k int, got []hit) error {
	if want := min(k, ra.count); len(got) != want {
		return fmt.Errorf("got %d matches, oracle wants min(k=%d, %d) = %d", len(got), k, ra.count, want)
	}
	seen := make(map[flix.NodeID]bool, len(got))
	for i, h := range got {
		if int(h.Node) < 0 || int(h.Node) >= len(ra.match) || !ra.match[h.Node] {
			return fmt.Errorf("node %d is not a reachable %q element", h.Node, ra.tag)
		}
		if seen[h.Node] {
			return fmt.Errorf("node %d reported twice", h.Node)
		}
		seen[h.Node] = true
		if i > 0 && h.Score > got[i-1].Score {
			return fmt.Errorf("score rises from %g to %g at rank %d", got[i-1].Score, h.Score, i)
		}
	}
	return nil
}
