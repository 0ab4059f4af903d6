package main

// The host's hypervisor takes CPU time from this machine in bursts (CPU
// steal: 0-20 % of a second, changing from one second to the next), and
// every latency and throughput figure moves with it.  The benchmark samples
// steal once per one-second slot while a phase runs and computes the open
// loop's latencies over the quietShare of its slots with the least steal,
// so that two runs compare the program rather than its neighbours.  The
// steal of every slot, and of the slots kept, is recorded in the
// provenance line.

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	slotLen    = time.Second
	quietShare = 0.75
)

// cpuTimes reads the machine-wide CPU time counters (user, nice, system,
// idle, iowait, irq, softirq, steal) from /proc/stat, in clock ticks.
func cpuTimes() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var out []float64
	for _, x := range f[1:9] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealFrac is the share of CPU time the hypervisor gave to other guests
// between two cpuTimes readings.
func stealFrac(before, after []float64) float64 {
	if len(before) != 8 || len(after) != 8 {
		return 0
	}
	var total float64
	for i := range after {
		total += after[i] - before[i]
	}
	return ratioOf(after[7]-before[7], total)
}

// stealMeter records the steal of each slot from its start until stop.
type stealMeter struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	slots []float64
}

func startStealMeter(start time.Time) *stealMeter {
	m := &stealMeter{start: start, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		prev := cpuTimes()
		for i := 1; ; i++ {
			select {
			case <-m.stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(i) * slotLen))):
			}
			cur := cpuTimes()
			m.mu.Lock()
			m.slots = append(m.slots, stealFrac(prev, cur))
			m.mu.Unlock()
			prev = cur
		}
	}()
	return m
}

// finish stops the meter and returns the quiet slots: a set of complete
// slot indexes holding the quietShare of slots with the least steal.
func (m *stealMeter) finish() quietSlots {
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := make([]int, len(m.slots))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return m.slots[idx[a]] < m.slots[idx[b]] })
	q := quietSlots{start: m.start, keep: map[int]bool{}, steal: append([]float64(nil), m.slots...)}
	for _, i := range idx[:int(math.Ceil(quietShare*float64(len(idx))))] {
		q.keep[i] = true
	}
	return q
}

type quietSlots struct {
	start time.Time
	keep  map[int]bool
	steal []float64 // per slot
}

// has reports whether instant t falls in a kept slot.
func (q quietSlots) has(t time.Time) bool {
	d := t.Sub(q.start)
	return d >= 0 && q.keep[int(d/slotLen)]
}

// keptSteal is the mean steal of the kept slots.
func (q quietSlots) keptSteal() float64 {
	var sum float64
	for i := range q.keep {
		sum += q.steal[i]
	}
	return ratioOf(sum, float64(len(q.keep)))
}
