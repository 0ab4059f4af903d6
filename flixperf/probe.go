package main

// The host probe.  The shared host this benchmark runs on changes speed
// for minutes at a time without the hypervisor counting it as steal: in
// ten consecutive runs of the same code on hopi-mapped, closed-loop
// throughput ranged from 273 to 597 req/s, and a fixed compute loop in the
// benchmark's own process, run between stretches of the closed loop,
// ranged from 0.53 to 1.03 of its usual rate with it (correlation of the
// logarithms 0.95, slope 1.06).  So the closed loop pauses every
// closedSegment, with both connections idle, for a probeLen run of the
// loop, and reports throughput divided by the host's speed: the median of
// the probes' rates relative to computeRef.  The probe runs only the
// benchmark's own code, never the program's, so a change to the program
// moves the scaled throughput exactly as it moves the raw one.  Raw
// throughput and every probe reading are in the provenance line.

import (
	"sync"
	"time"
)

const (
	probeLen      = 150 * time.Millisecond
	closedSegment = 1900 * time.Millisecond
	// computeRef is the probe rate, in xorshift rounds per second summed
	// over its goroutines, that reads as speed 1: about what the probe
	// reads on the 2-CPU machine the offered rates were set on when its
	// host is quiet.
	computeRef = 8.0e8
)

// probeSpeed runs a xorshift loop on one goroutine per connection for d
// and returns its rate relative to computeRef.
func probeSpeed(d time.Duration) float64 {
	const batch = 4096
	var (
		mu  sync.Mutex
		sum float64
		wg  sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			n := 0
			t0 := time.Now()
			for time.Since(t0) < d {
				for i := 0; i < batch; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				n += batch
			}
			r := float64(n) / time.Since(t0).Seconds()
			if x == 0 { // never: xorshift has no zero state; keeps x live
				r = 0
			}
			mu.Lock()
			sum += r
			mu.Unlock()
		}(uint64(c) + 1)
	}
	wg.Wait()
	return sum / computeRef
}
