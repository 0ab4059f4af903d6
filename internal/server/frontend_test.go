package server

// flixd and flixd-router serve one HTTP front end over two backends.  These
// tests send the same requests to a flixd server and to a 1-shard router
// over the same index and require the same answers from both: the same
// status and error text for every request the front end rejects (only the
// readiness message names what its backend waits for), the same request
// series under each binary's metric prefix, and the same response fields.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// frontEnd is one binary's HTTP surface under test.
type frontEnd struct {
	name   string
	prefix string // metric prefix of the request series
	s      *Server
	url    string
}

// frontEnds serves one index both ways with the same front-end config: as
// flixd, and as a ready router in front of a single shard.
func frontEnds(t *testing.T, cfg Config) []frontEnd {
	t.Helper()
	ix := testIndex(t)
	local := New(ix, cfg)
	sh := httptest.NewServer(New(ix, Config{Shard: &ShardConfig{ID: 0, Count: 1}, CacheSize: -1}).Handler())
	t.Cleanup(sh.Close)
	rt, err := shard.NewRouter(ix.Collection(), shard.RouterConfig{
		Shards:        []string{sh.URL},
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := rt.WaitReady(wctx); err != nil {
		t.Fatalf("router never became ready: %v", err)
	}
	routed := NewRouted(rt, cfg)
	var out []frontEnd
	for _, fe := range []frontEnd{{"flixd", "flix", local, ""}, {"flixd-router", "flix_router", routed, ""}} {
		ts := httptest.NewServer(fe.s.Handler())
		t.Cleanup(ts.Close)
		fe.url = ts.URL
		out = append(out, fe)
	}
	return out
}

// do sends one request and returns the status and the decoded body.
func do(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
	}
	return resp.StatusCode, out
}

func TestFrontEndParity(t *testing.T) {
	fes := frontEnds(t, Config{MaxBatch: 2})
	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"bad k", http.MethodGet, "/v1/descendants?start=movies.xml&k=-1", "", http.StatusBadRequest},
		{"bad timeout", http.MethodGet, "/v1/descendants?start=movies.xml&timeout=bogus", "", http.StatusBadRequest},
		{"bad maxdist", http.MethodGet, "/v1/connected?from=movies.xml&to=actors.xml&maxdist=x", "", http.StatusBadRequest},
		{"unknown start", http.MethodGet, "/v1/descendants?start=nosuch.xml&tag=actor", "", http.StatusNotFound},
		{"missing q", http.MethodGet, "/v1/query?k=3", "", http.StatusBadRequest},
		{"batch GET", http.MethodGet, "/v1/batch", "", http.StatusMethodNotAllowed},
		{"empty batch", http.MethodPost, "/v1/batch", `{"queries": []}`, http.StatusBadRequest},
		{"oversize batch", http.MethodPost, "/v1/batch", `{"queries": [{"q": "//a"}, {"q": "//b"}, {"q": "//c"}]}`, http.StatusBadRequest},
		{"malformed batch", http.MethodPost, "/v1/batch", `{"queries": [`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var errs []string
			for _, fe := range fes {
				status, body := do(t, c.method, fe.url+c.path, c.body)
				if status != c.status {
					t.Errorf("%s: status %d, want %d", fe.name, status, c.status)
				}
				msg, _ := body["error"].(string)
				if msg == "" {
					t.Errorf("%s: no error text in %v", fe.name, body)
				}
				errs = append(errs, msg)
			}
			if errs[0] != errs[1] {
				t.Errorf("error text differs: flixd %q, flixd-router %q", errs[0], errs[1])
			}
		})
	}
}

// TestFrontEndParityAtCapacity saturates each front end's only admission
// slot and requires the same 429 from both.
func TestFrontEndParityAtCapacity(t *testing.T) {
	var errs []string
	for _, fe := range frontEnds(t, Config{MaxInFlight: 1}) {
		entered := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		fe.s.queryHook = func() {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		done := make(chan int)
		go func() {
			resp, err := http.Get(fe.url + "/v1/descendants?start=movies.xml&tag=actor")
			if err != nil {
				done <- -1
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		<-entered // the first request holds the only admission slot

		status, body := do(t, http.MethodGet, fe.url+"/v1/descendants?start=movies.xml&tag=actor", "")
		close(release)
		if status != http.StatusTooManyRequests {
			t.Errorf("%s: saturated front end returned %d, want 429", fe.name, status)
		}
		if got := <-done; got != http.StatusOK {
			t.Errorf("%s: the admitted request returned %d, want 200", fe.name, got)
		}
		msg, _ := body["error"].(string)
		errs = append(errs, msg)
	}
	if errs[0] == "" || errs[0] != errs[1] {
		t.Errorf("429 error text: flixd %q, flixd-router %q", errs[0], errs[1])
	}
}

// TestFrontEndParityNotReady checks the 503 both front ends answer before
// their backend is ready: no generation installed, no shard probed.  The
// message names what each backend waits for, so only its presence is
// compared.
func TestFrontEndParityNotReady(t *testing.T) {
	coll := testIndex(t).Collection()
	rt, err := shard.NewRouter(coll, shard.RouterConfig{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Server{
		"flixd":        NewPending(coll, Config{}),
		"flixd-router": NewRouted(rt, Config{}), // never started: no shard is up
	} {
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		for _, path := range []string{"/healthz", "/v1/descendants?start=movies.xml&tag=actor", "/v1/batch"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s %s before ready: status %d, Retry-After %q; want 503 with Retry-After",
					name, path, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		}
		status, body := do(t, http.MethodGet, ts.URL+"/v1/query?q=//actor", "")
		if msg, _ := body["error"].(string); status != http.StatusServiceUnavailable || msg == "" {
			t.Errorf("%s /v1/query before ready: %d %v", name, status, body)
		}
	}
}

// TestFrontEndBatchSeries checks that one POST /v1/batch moves the batch
// request counter and the batch latency histogram by exactly one on both
// binaries, each under its own metric prefix.
func TestFrontEndBatchSeries(t *testing.T) {
	for _, fe := range frontEnds(t, Config{}) {
		reqs := fe.prefix + `_requests_total{endpoint="batch"}`
		count := fe.prefix + `_request_duration_seconds_count{endpoint="batch"}`
		before := scrape(t, fe.url)
		for _, series := range []string{reqs, count} {
			if _, ok := before.samples[series]; !ok {
				t.Fatalf("%s: %s missing from /metrics", fe.name, series)
			}
		}
		if status, body := do(t, http.MethodPost, fe.url+"/v1/batch",
			`{"queries": [{"start": "movies.xml", "tag": "actor"}, {"q": "//movie//actor"}]}`); status != http.StatusOK {
			t.Fatalf("%s: batch status %d: %v", fe.name, status, body)
		}
		after := scrapeUntil(t, fe.url, func(e *exposition) bool { return e.samples[count] > before.samples[count] })
		for _, series := range []string{reqs, count} {
			if d := after.samples[series] - before.samples[series]; d != 1 {
				t.Errorf("%s: %s moved by %v, want 1", fe.name, series, d)
			}
		}
	}
}

// TestFrontEndQueryTruncated checks that /v1/query reports the ranked
// evaluator's truncation on both binaries: false on a complete answer,
// true when the deadline cut the evaluation short.
func TestFrontEndQueryTruncated(t *testing.T) {
	for _, fe := range frontEnds(t, Config{}) {
		for _, c := range []struct {
			timeout string
			want    bool
		}{{"20s", false}, {"1ns", true}} {
			status, body := do(t, http.MethodGet, fe.url+"/v1/query?q=//movie//actor&timeout="+c.timeout, "")
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %v", fe.name, status, body)
			}
			if got, ok := body["truncated"].(bool); !ok || got != c.want {
				t.Errorf("%s timeout=%s: truncated = %v (present %v), want %v", fe.name, c.timeout, body["truncated"], ok, c.want)
			}
		}
	}
}
