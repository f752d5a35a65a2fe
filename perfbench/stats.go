package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// recorder collects one run's samples and counters. Workloads write
// into it; main turns it into the reported metrics.
type recorder struct {
	series map[string][]float64
	values map[string]float64
	// attempts / failures count operations per kind (cycles, sFlow
	// datagrams, BMP routes, API requests) for the failed-share rule.
	attempts map[string]int
	failures map[string]int
}

func newRecorder() *recorder {
	return &recorder{
		series:   make(map[string][]float64),
		values:   make(map[string]float64),
		attempts: make(map[string]int),
		failures: make(map[string]int),
	}
}

// sample appends one observation to a named series.
func (r *recorder) sample(name string, v float64) { r.series[name] = append(r.series[name], v) }

// add accumulates into a named value.
func (r *recorder) add(name string, v float64) { r.values[name] += v }

// set overwrites a named value.
func (r *recorder) set(name string, v float64) { r.values[name] = v }

// attempt counts n operations of a kind; fail counts n of them failed.
func (r *recorder) attempt(kind string, n int) { r.attempts[kind] += n }
func (r *recorder) fail(kind string, n int)    { r.failures[kind] += n }

func (r *recorder) totals() (attempted, failed int) {
	for _, n := range r.attempts {
		attempted += n
	}
	for _, n := range r.failures {
		failed += n
	}
	return attempted, failed
}

// quantile returns the q-quantile of a series by linear interpolation
// between order statistics (0 for an empty series).
func (r *recorder) quantile(name string, q float64) float64 {
	return quantile(r.series[name], q)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// liveHeapMB forces a full collection and returns the live heap in MB.
// The second collection empties the pools the first one only demoted.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// gcCycles reads the runtime's completed GC cycle count.
func gcCycles() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
