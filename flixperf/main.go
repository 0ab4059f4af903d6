// Command flixperf is the repository's served-path benchmark.  It starts
// flixd (and, in traced runs, flixd-router in front of two flixd shards)
// as child processes on loopback, drives one workload from a single
// load-generator process over at most two connections, checks every
// response against a breadth-first-search oracle, and prints the metrics as
// one JSON object on the last line of standard output.
//
// It is normally run through run.sh, which builds the binaries from the
// working tree first:
//
//	bash flixperf/run.sh --workload dblp-read --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same request
// sequence again with the benchmark's own spans, the servers' ?trace=1
// EXPLAIN summaries and /metrics and /statsz deltas, and prints the
// per-layer metrics.  See README.md for the workloads, the metrics and how
// they are expected to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// heldOutSeed is the seed reserved for checking a performance claim: it is
// never used while tuning a change (see README.md).
const heldOutSeed = 1000003

// workload is one traffic mix over one deployment.
type workload struct {
	name string
	// rate is the open-loop arrival rate in requests per second, set near
	// 30 % of the capacity the closed loop measured on the seed commit
	// (README.md gives the reason it is not half).
	rate float64
	// mix is the share of each operation, by request count.
	mix [numOps]float64
	// rootStarts draws descendants starts Zipf-skewed from a pool of
	// document roots; otherwise starts are elements drawn uniformly.
	rootStarts bool
	// descK is the set of result limits descendants requests draw from.
	descK []int
	// batch is the number of descendants items (k = 10) in one batch.
	batch int
	// unreachableHalf makes the non-reachable half of the connection
	// pairs provably unreachable; otherwise it is random root pairs.
	unreachableHalf bool
	// snapshot serves a compressed v2 snapshot of an UnconnectedHOPI
	// index (partition size 5000) through flixd -load; otherwise flixd
	// builds its default Hybrid index at start.
	snapshot bool
}

var workloads = []workload{
	{
		// One flixd building its default Hybrid index; Zipf-repeated
		// descendants hit the query cache; JSON encoding, the cache and
		// the PPO evaluator do the work.
		name:            "dblp-read",
		rate:            280,
		mix:             [numOps]float64{0.70, 0.20, 0.05, 0.05},
		rootStarts:      true,
		descK:           []int{10, 100},
		batch:           32,
		unreachableHalf: true,
	},
	{
		// flixd -load of a compressed v2 UnconnectedHOPI-5000 snapshot;
		// uniform starts bypass the cache; mapped hopi-c probes do the
		// work.
		name:     "hopi-mapped",
		rate:     140,
		mix:      [numOps]float64{0.35, 0.45, 0.10, 0.10},
		descK:    []int{10},
		batch:    2,
		snapshot: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("flixperf: ")
	var (
		name    = flag.String("workload", "", "workload: dblp-read | hopi-mapped")
		seed    = flag.Int64("seed", 1, "input seed: corpus, request sequence")
		seconds = flag.Int("seconds", 40, "measured seconds (open loop, then closed loop)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding flixd, flixd-router and dblpgen")
		workDir = flag.String("work", ".bench_build/work", "scratch directory for corpus, snapshot, logs and spans")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Fatalf("want --seconds ≥ 1 and --trace 0|1")
	}
	for _, b := range []string{"flixd", "flixd-router", "dblpgen"} {
		if _, err := os.Stat(filepath.Join(*binDir, b)); err != nil {
			log.Fatalf("missing binary: %v (build with run.sh)", err)
		}
	}

	// Children die with us: every process is registered and stopped on
	// return and on SIGINT/SIGTERM.
	procs := &procSet{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		procs.stopAll()
		os.Exit(1)
	}()

	r := &runner{
		w:       w,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		bin:     *binDir,
		work:    filepath.Join(*workDir, fmt.Sprintf("%s-%d", w.name, *seed)),
		procs:   procs,
		traced:  *trace == 1,
	}
	res, err := r.run()
	procs.stopAll()
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
