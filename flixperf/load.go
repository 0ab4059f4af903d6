package main

// The load generator: one process, at most two connections, an open loop
// on a fixed arrival schedule (latency timed from each request's due time)
// and a closed loop (each connection sends its next request when the
// previous one completes).  Every response is checked against the oracle.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	flix "repro"
)

const conns = 2

// outcome is one request's measurement.
type outcome struct {
	op      opKind
	pos     int           // position in the sequence
	at      time.Time     // send time
	lat     time.Duration // from due time (open loop) or send time (closed loop)
	svc     time.Duration // from send time to the last body byte
	late    time.Duration // send time minus due time (open loop)
	ok      bool          // 200 and neither timedOut, partial nor truncated
	results int           // result elements returned
	bytes   int           // response body bytes
	traced  bool          // sent with ?trace=1
	trace   json.RawMessage
}

type loadGen struct {
	base   string
	client *http.Client
	coll   *flix.Collection
	seq    *sequence
	cursor atomic.Int64
	// traceEvery > 0 appends trace=1 to every traceEvery-th request of
	// the sequence (single-query endpoints only) and keeps the EXPLAIN
	// payload in its outcome.
	traceEvery int

	mu    sync.Mutex
	wrong []string // oracle rejections
	// checked and longer count descendants results verified, and those
	// reported at a longer-than-shortest distance.
	checked, longer atomic.Int64
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// next returns the next request and its position in the sequence.
func (g *loadGen) next() (*request, int) {
	i := int(g.cursor.Add(1) - 1)
	return &g.seq.reqs[i%len(g.seq.reqs)], i
}

// singleResp covers the /v1/descendants, /v1/connected and /v1/query
// response shapes of flixd and flixd-router.
type singleResp struct {
	Results   []hit           `json:"results"`
	Count     int             `json:"count"`
	TimedOut  bool            `json:"timedOut"`
	Partial   bool            `json:"partial"`
	Truncated bool            `json:"truncated"`
	Connected bool            `json:"connected"`
	Dist      int32           `json:"dist"`
	Trace     json.RawMessage `json:"trace"`
}

type batchResp struct {
	Results []struct {
		Status    string `json:"status"`
		Results   []hit  `json:"results"`
		Count     int    `json:"count"`
		Truncated bool   `json:"truncated"`
	} `json:"results"`
	Partial      bool  `json:"partial"`
	TimedOut     bool  `json:"timedOut"`
	FailedShards []int `json:"failedShards"`
}

// do sends the request at sequence position pos, times it, and checks the
// answer.
func (g *loadGen) do(req *request, pos int, buf *bytes.Buffer) outcome {
	o := outcome{op: req.op, pos: pos, traced: g.traceEvery > 0 && pos%g.traceEvery == 0 && req.op != opBatch}
	path := req.path
	if o.traced {
		path += "&trace=1"
	}
	var (
		hr  *http.Request
		err error
	)
	if req.body != nil {
		hr, err = http.NewRequest(http.MethodPost, g.base+path, bytes.NewReader(req.body))
		if err == nil {
			hr.Header.Set("Content-Type", "application/json")
		}
	} else {
		hr, err = http.NewRequest(http.MethodGet, g.base+path, nil)
	}
	if err != nil {
		g.reject(req, fmt.Sprintf("build request: %v", err))
		return o
	}
	t0 := time.Now()
	o.at = t0
	resp, err := g.client.Do(hr)
	if err != nil {
		o.svc = time.Since(t0)
		return o // refused or reset: a failure, not a wrong answer
	}
	buf.Reset()
	_, rerr := buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.svc = time.Since(t0)
	o.bytes = buf.Len()
	if rerr != nil {
		return o
	}
	if resp.StatusCode != http.StatusOK {
		return o // shed (429) or refused: a failure
	}
	g.check(req, buf.Bytes(), &o)
	return o
}

// check decodes a 200 response and verifies it against the oracle.  A
// degraded answer (timedOut, partial, truncated) is a failure; a wrong one
// is recorded as a rejection.
func (g *loadGen) check(req *request, body []byte, o *outcome) {
	if req.op == opBatch {
		var br batchResp
		if err := json.Unmarshal(body, &br); err != nil {
			g.reject(req, fmt.Sprintf("decode: %v", err))
			return
		}
		if br.Partial || br.TimedOut || len(br.FailedShards) > 0 {
			return
		}
		if len(br.Results) != len(req.items) {
			g.reject(req, fmt.Sprintf("batch answered %d of %d items", len(br.Results), len(req.items)))
			return
		}
		for i, it := range br.Results {
			if it.Status != "ok" || it.Truncated {
				if it.Status == "error" {
					g.reject(req, fmt.Sprintf("batch item %d: status %q", i, it.Status))
				}
				return
			}
			q := req.items[i]
			err := checkCount(it.Count, it.Results)
			if err == nil {
				err = g.checkDesc(q, it.Results)
			}
			if err != nil {
				g.reject(req, fmt.Sprintf("batch item %d (start=%s tag=%q): %v", i, q.start, q.tag, err))
				return
			}
			o.results += len(it.Results)
		}
		o.ok = true
		return
	}
	var sr singleResp
	if err := json.Unmarshal(body, &sr); err != nil {
		g.reject(req, fmt.Sprintf("decode: %v", err))
		return
	}
	o.trace = sr.Trace
	if sr.TimedOut || sr.Partial || sr.Truncated {
		return
	}
	var err error
	switch req.op {
	case opDesc:
		if err = checkCount(sr.Count, sr.Results); err == nil {
			err = g.checkDesc(req.desc, sr.Results)
		}
		o.results = len(sr.Results)
	case opConn:
		err = checkConnected(req.want, sr.Connected, sr.Dist)
		if sr.Connected {
			o.results = 1
		}
	case opQuery:
		if err = checkCount(sr.Count, sr.Results); err == nil {
			err = checkRanked(req.ra, rankedK, sr.Results)
		}
		o.results = len(sr.Results)
	}
	if err != nil {
		g.reject(req, err.Error())
		return
	}
	o.ok = true
}

func (g *loadGen) checkDesc(it descItem, got []hit) error {
	longer, err := checkDescendants(g.coll, it.rs, it.tag, it.k, got)
	g.checked.Add(int64(len(got)))
	g.longer.Add(int64(longer))
	return err
}

func checkCount(count int, got []hit) error {
	if count != len(got) {
		return fmt.Errorf("count %d but %d results", count, len(got))
	}
	return nil
}

func (g *loadGen) reject(req *request, msg string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.wrong) < 20 {
		g.wrong = append(g.wrong, fmt.Sprintf("%s %s: %s", opNames[req.op], req.path, msg))
	} else {
		g.wrong = append(g.wrong[:20], "...")
	}
}

func (g *loadGen) rejections() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.wrong...)
}

// openLoop sends rate×dur requests on a fixed schedule over the
// connections; a request due while both connections are busy waits, and
// that wait counts in its latency.
func (g *loadGen) openLoop(rate float64, dur time.Duration) []outcome {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	outs := make([]outcome, n)
	start := time.Now().Add(5 * time.Millisecond)
	var idx atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := idx.Add(1) - 1
				if i >= int64(n) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				req, pos := g.next()
				sent := time.Now()
				o := g.do(req, pos, &buf)
				o.late = sent.Sub(due)
				o.lat = o.late + o.svc
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs
}

// closedLoop keeps every connection busy until dur has passed.
func (g *loadGen) closedLoop(dur time.Duration) []outcome {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]outcome, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				req, pos := g.next()
				o := g.do(req, pos, &buf)
				o.lat = o.svc
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs
}

// sequential sends n requests one at a time (reconciliation passes).
func (g *loadGen) sequential(n int) []outcome {
	outs := make([]outcome, 0, n)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		req, pos := g.next()
		o := g.do(req, pos, &buf)
		o.lat = o.svc
		outs = append(outs, o)
	}
	return outs
}
