package main

// The benchmark's own spans and the run's provenance record.  Spans are
// kept in memory and written out once, at the end of the run.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"` // 0: a root span
	Name   string         `json:"name"`
	Start  float64        `json:"startUs"` // since the run began
	Dur    float64        `json:"durUs"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	t0     time.Time
}

type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) start() { l.t0 = time.Now() }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, parent int) int {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: us(now.Sub(l.t0)), t0: now})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int, attrs map[string]any) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.Dur, s.Attrs = us(now.Sub(s.t0)), attrs
}

// add records a finished span measured by the caller.
func (l *spanLog) add(name string, parent int, start time.Time, d time.Duration, attrs map[string]any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: us(start.Sub(l.t0)), Dur: us(d), Attrs: attrs})
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// seconds returns the duration of the first span named name, in seconds.
func (l *spanLog) seconds(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.Name == name {
			return s.Dur / 1e6
		}
	}
	return 0
}

func (l *spanLog) write(path string, prov map[string]any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(map[string]any{"provenance": prov, "spans": l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// provenance records what was measured, where, and on what input.
func (r *runner) provenance(open []outcome) (map[string]any, error) {
	strategies := map[string]any{}
	for _, p := range r.serving[:1] {
		st, err := r.statsz(p)
		if err != nil {
			return nil, err
		}
		if s, ok := lookup(st, "index", "strategies").(map[string]any); ok {
			strategies = s
		}
	}
	var late []time.Duration
	for _, o := range open {
		late = append(late, o.late)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	c := r.corp.coll
	return map[string]any{
		"workload":       r.w.name,
		"trace":          r.traced,
		"gitRevision":    gitRevision(),
		"sourceSha256":   sourceHash("."),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"goVersion":      runtime.Version(),
		"seed":           r.seed,
		"corpusSeed":     corpusSeed,
		"heldOutSeed":    heldOutSeed,
		"documents":      c.NumDocs(),
		"elements":       c.NumNodes(),
		"links":          c.NumLinks(),
		"metaDocuments":  strategies,
		"snapshotBytes":  r.corp.snapBytes,
		"offeredRate":    r.w.rate,
		"connections":    conns,
		"lateP50Ms":      ms(quantile(late, 0.5)),
		"lateP99Ms":      ms(quantile(late, 0.99)),
		"hostStealFrac":  stealFrac(r.cpu0, cpuTimes()),
		"quietSlots":     r.quiet,
		"closedLoop":     r.closedStats,
		"setupSeconds":   r.setupS,
		"requests":       len(r.seq.reqs),
		"sequenceWraps":  int(r.seqUsed()) / len(r.seq.reqs),
		"requestsIssued": r.seqUsed(),
		// The evaluator reports upper-bound distances: results checked,
		// and those farther than the BFS shortest distance.
		"descendantsResultsChecked": r.gen.checked.Load(),
		"descendantsResultsLonger":  r.gen.longer.Load(),
	}, nil
}

func (r *runner) seqUsed() int64 { return r.gen.cursor.Load() }

// gitRevision is the checkout's commit, or "none" outside a git work tree.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash identifies the measured source tree: a SHA-256 over the
// paths and contents of every Go source and module file, sorted by path.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f) // a short read changes the hash, which is the point
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
