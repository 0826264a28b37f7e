package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// exclusive method as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailLadder lists the percentiles lat_tail_us may report, highest first.
// It stops at p99: in kv (80 000 transactions a pass) p99.9 falls among
// checkpoint pauses of different systems, 0.5 to 20 ms apart, and jumped
// between 1.9 and 5.0 ms across passes of one seed, while p99 held within
// the machine's own noise. Checkpoint pauses show in throughput and in
// the traced run's sim.ckpt_us and kv.pause_us.
var tailLadder = []float64{99, 90, 50}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, its nearest-rank value, and how many samples lie beyond it.
func tail(ns []int64) (pct float64, value int64, beyond int) {
	if len(ns) == 0 {
		return 0, 0, 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 || p == tailLadder[len(tailLadder)-1] {
			return p, s[rank-1], n - rank
		}
	}
	return 0, 0, 0
}

// p50 returns the nearest-rank median of ns.
func p50(ns []int64) int64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)+1)/2-1]
}

// rtSnap is one reading of the Go runtime counters the benchmark reports.
type rtSnap struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU                           float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	var gc float64
	if s[3].Value.Kind() == metrics.KindFloat64 {
		gc = s[3].Value.Float64()
	}
	return rtSnap{allocBytes: u(0), allocObjs: u(1), gcCycles: u(2), gcCPU: gc}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{
		allocBytes: a.allocBytes - b.allocBytes,
		allocObjs:  a.allocObjs - b.allocObjs,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

func (a *rtSnap) add(b rtSnap) {
	a.allocBytes += b.allocBytes
	a.allocObjs += b.allocObjs
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
}

// peakRSSMB is this process's peak resident set, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
