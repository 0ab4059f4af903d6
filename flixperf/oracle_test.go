package main

import (
	"math/rand"
	"strings"
	"testing"

	flix "repro"
)

// testCollection builds two linked documents:
//
//	a.xml: article(0) → author(1), cite(2) ──link──▶ b.xml root
//	b.xml: inproceedings(3) → author(4), title(5)
//
// plus an unlinked c.xml: article(6) → title(7).
func testCollection(t *testing.T) *flix.Collection {
	t.Helper()
	c := flix.NewCollection()
	a := c.NewDocument("a.xml")
	a.Enter("article", "")
	a.AddLeaf("author", "Ann")
	cite := a.AddLeaf("cite", "")
	a.Leave()
	a.Close()
	b := c.NewDocument("b.xml")
	broot := b.Enter("inproceedings", "")
	b.AddLeaf("author", "Bob")
	b.AddLeaf("title", "Paths")
	b.Leave()
	b.Close()
	d := c.NewDocument("c.xml")
	d.Enter("article", "")
	d.AddLeaf("title", "Alone")
	d.Leave()
	d.Close()
	c.AddLink(cite, broot, flix.EdgeInterLink)
	c.Freeze()
	return c
}

func TestReachSet(t *testing.T) {
	c := testCollection(t)
	b := newBFS(c)
	rs := b.reach(0)
	want := map[flix.NodeID]int32{1: 1, 2: 1, 3: 2, 4: 3, 5: 3}
	if len(rs.nodes) != len(want) {
		t.Fatalf("reach(0) = %v, want %v", rs.nodes, want)
	}
	for n, d := range want {
		if got := rs.shortest(n); got != d {
			t.Errorf("shortest(%d) = %d, want %d", n, got, d)
		}
	}
	if rs.shortest(0) != -1 || rs.shortest(6) != -1 {
		t.Errorf("start or unreachable node reported reachable")
	}
	if rs.count("author") != 2 || rs.count("") != 5 || rs.count("title") != 1 {
		t.Errorf("counts: author %d, any %d, title %d", rs.count("author"), rs.count(""), rs.count("title"))
	}
}

func TestCheckDescendants(t *testing.T) {
	c := testCollection(t)
	rs := newBFS(c).reach(0)
	cases := []struct {
		name string
		tag  string
		k    int
		got  []hit
		err  string // substring; "" = accepted
	}{
		{"exact", "author", 10, []hit{{Node: 1, Dist: 1}, {Node: 4, Dist: 3}}, ""},
		{"upper-bound distance", "author", 10, []hit{{Node: 4, Dist: 7}, {Node: 1, Dist: 1}}, ""},
		{"any k-subset", "", 2, []hit{{Node: 5, Dist: 3}, {Node: 2, Dist: 1}}, ""},
		{"too few", "author", 10, []hit{{Node: 1, Dist: 1}}, "oracle wants"},
		{"too many", "", 1, []hit{{Node: 1, Dist: 1}, {Node: 2, Dist: 1}}, "oracle wants"},
		{"duplicate", "author", 2, []hit{{Node: 1, Dist: 1}, {Node: 1, Dist: 1}}, "twice"},
		{"wrong tag", "author", 1, []hit{{Node: 5, Dist: 3}}, "tag"},
		{"unreachable", "title", 1, []hit{{Node: 7, Dist: 1}}, "not reachable"},
		{"shorter than BFS", "author", 2, []hit{{Node: 1, Dist: 1}, {Node: 4, Dist: 2}}, "shorter"},
		{"out of range", "", 1, []hit{{Node: 99, Dist: 1}}, "out of range"},
	}
	for _, tc := range cases {
		_, err := checkDescendants(c, rs, tc.tag, tc.k, tc.got)
		if (err == nil) != (tc.err == "") || (err != nil && !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
		}
	}
}

func TestCheckDescendantsCountsUpperBounds(t *testing.T) {
	c := testCollection(t)
	rs := newBFS(c).reach(0)
	longer, err := checkDescendants(c, rs, "", 3, []hit{{Node: 1, Dist: 1}, {Node: 4, Dist: 5}, {Node: 5, Dist: 4}})
	if err != nil || longer != 2 {
		t.Errorf("longer = %d, err = %v; want 2, nil", longer, err)
	}
}

func TestCheckConnected(t *testing.T) {
	cases := []struct {
		want      int32
		connected bool
		dist      int32
		ok        bool
	}{
		{3, true, 3, true},
		{3, true, 5, true},  // an upper bound is sound
		{3, true, 2, false}, // shorter than the shortest path
		{3, false, 0, false},
		{-1, false, 0, true},
		{-1, true, 4, false},
	}
	for _, tc := range cases {
		if err := checkConnected(tc.want, tc.connected, tc.dist); (err == nil) != tc.ok {
			t.Errorf("checkConnected(%d, %v, %d) = %v, want ok=%v", tc.want, tc.connected, tc.dist, err, tc.ok)
		}
	}
}

func TestCheckRanked(t *testing.T) {
	c := testCollection(t)
	b := newBFS(c)
	ra := b.ranked("inproceedings", "title") // c.xml's title is below an article only
	if ra.count != 1 || !ra.match[5] || ra.match[7] {
		t.Fatalf("//inproceedings//title: count %d, match[5]=%v match[7]=%v", ra.count, ra.match[5], ra.match[7])
	}
	if linked := b.ranked("article", "author"); linked.count != 2 || !linked.match[4] {
		t.Fatalf("//article//author: count %d, want 2 including b.xml's author over the link", linked.count)
	}
	if err := checkRanked(ra, 10, []hit{{Node: 5, Score: 0.5}}); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	if err := checkRanked(ra, 10, []hit{{Node: 7, Score: 0.5}}); err == nil {
		t.Errorf("unreachable title accepted")
	}
	single := b.ranked("", "author")
	if single.count != 2 {
		t.Fatalf("//author: count %d, want 2", single.count)
	}
	if err := checkRanked(single, 2, []hit{{Node: 1, Score: 1}, {Node: 4, Score: 1}}); err != nil {
		t.Errorf("correct single-step answer rejected: %v", err)
	}
	if err := checkRanked(single, 2, []hit{{Node: 1, Score: 0.5}, {Node: 4, Score: 1}}); err == nil {
		t.Errorf("rising scores accepted")
	}
	if err := checkRanked(single, 2, []hit{{Node: 1, Score: 1}, {Node: 1, Score: 1}}); err == nil {
		t.Errorf("duplicate accepted")
	}
	if err := checkRanked(single, 2, []hit{{Node: 1, Score: 1}}); err == nil {
		t.Errorf("short answer accepted")
	}
}

func TestOpBlocks(t *testing.T) {
	ops := opBlocks(rand.New(rand.NewSource(1)), [numOps]float64{0.70, 0.20, 0.05, 0.05}, 3*mixBlock+5)
	if len(ops) != 3*mixBlock+5 {
		t.Fatalf("got %d operations, want %d", len(ops), 3*mixBlock+5)
	}
	for b := 0; b < 3; b++ {
		var count [numOps]int
		for _, op := range ops[b*mixBlock : (b+1)*mixBlock] {
			count[op]++
		}
		if count != [numOps]int{14, 4, 1, 1} {
			t.Fatalf("block %d counts %v, want [14 4 1 1]", b, count)
		}
	}
}

func TestCyclerDrawsEveryEntryEquallyOften(t *testing.T) {
	c := &cycler{r: rand.New(rand.NewSource(1)), n: 5}
	count := make([]int, 5)
	for i := 0; i < 12; i++ {
		count[c.next()]++
	}
	for i, n := range count {
		if n < 2 || n > 3 {
			t.Fatalf("entry %d drawn %d times in 12 draws of 5: %v", i, n, count)
		}
	}
}
