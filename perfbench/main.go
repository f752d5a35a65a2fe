// Command perfbench is the repository's benchmark: it runs the
// deployed Edge Fabric controller path on one named workload, measures
// it for a fixed wall time, checks every decision against what the
// routers actually hold, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separately traced run reports the per-layer split. See README.md for
// the workloads, the metric map and the baseline split.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload pop-peak --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one closed-loop scenario over the deployed path.
type workload interface {
	// base exposes the loop state the driver swaps between set-up, the
	// measured run and the control arm.
	base() *common
	// setup builds, converges and runs the first cycle, until the loop
	// can start.
	setup() error
	// iterate runs one closed-loop iteration (tick or round).
	iterate(seq uint64)
	// handler is the controller-state API the open-loop reader reads.
	handler() http.Handler
	// finish books end-of-run counters into the recorder.
	finish()
	// control injects one delivery fault for the control arm: the
	// routers end up missing an override the controller installed.
	control()
	// faults reports how many faults control injected so far.
	faults() uint64
	// close tears down every session, listener and goroutine.
	close()
}

// common is the state every workload's loop shares.
type common struct {
	rec          *recorder
	tr           *tracer
	dig          *digest
	tap          wireTap
	applyTimeout time.Duration
}

func (c *common) base() *common { return c }

// checkApplied books a cycle's decision check: the installed set must
// be what the healthy cycle decided, every router's session must have
// carried exactly the installed set, and the routers' tables must hold
// it before the apply timeout.
func (c *common) checkApplied(healthy bool, decided, installed overrideSet, onWire, applied bool) {
	switch {
	case !healthy:
		// already booked as a failed cycle
	case !decided.equal(installed):
		c.rec.fail("cycles", 1)
		c.rec.add("check.not_installed", 1)
	case !onWire:
		c.rec.fail("cycles", 1)
		c.rec.add("check.not_on_wire", 1)
	case !applied:
		c.rec.fail("cycles", 1)
		c.rec.add("check.not_applied", 1)
	}
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "pop-peak":
		return &popPeak{seed: seed}, nil
	case "table-scale":
		return &tableScale{seed: seed}, nil
	case "fleet-256":
		return &fleet{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want pop-peak, table-scale or fleet-256)", name)
}

const (
	// digestCycles is how many leading cycles the decision digest
	// covers; every run completes at least this many.
	digestCycles = 40
	// controlIters bounds the control arm's iterations.
	controlIters = 60
	applyTimeout = 5 * time.Second
	// heapAt is the iteration after which the live heap is read: past
	// the controller's first 64-cycle safety sweep, and a fixed point.
	// An end-of-run reading swung by about 10 % between runs of one
	// seed, with how many iterations the machine managed.
	heapAt = 80
	// setupsPerRun is how many times a run builds its workload from
	// scratch; setup_s is their median.
	setupsPerRun = 3
	runLimit     = 170 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "pop-peak, table-scale or fleet-256")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measured wall time")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	)
	flag.Parse()
	// A run that hangs (a session that never establishes, a feed that
	// never drains) must still end, without a result, well inside the
	// 180 s a run may take.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runLimit)
		os.Exit(1)
	})
	if *name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	out, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds time.Duration, trace bool) (*output, error) {
	var (
		w      workload
		setupS []float64
	)
	for k := 0; k < setupsPerRun; k++ {
		runtime.GC()
		cand, err := newWorkload(name, seed)
		if err != nil {
			return nil, err
		}
		b := cand.base()
		b.rec, b.dig, b.applyTimeout = newRecorder(), newDigest(digestCycles), applyTimeout
		t0 := time.Now()
		err = cand.setup()
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			cand.close()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		if k < setupsPerRun-1 {
			cand.close()
			continue
		}
		w = cand
	}
	defer w.close()

	// The measured run keeps the last set-up's operation accounting
	// (BMP dump routes, first cycle) and dump rate, and starts every
	// series afresh.
	b := w.base()
	rec := newRecorder()
	for k, n := range b.rec.attempts {
		rec.attempt(k, n)
	}
	for k, n := range b.rec.failures {
		rec.fail(k, n)
	}
	rec.set("bmp.dump_routes_per_s", b.rec.values["bmp.dump_routes_per_s"])
	b.rec, b.dig = rec, newDigest(digestCycles)
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	b.tr = tr
	reader, err := startAPI(w.handler(), tr)
	if err != nil {
		return nil, err
	}

	gc0 := gcCycles()
	var (
		plain, traced []float64
		heapRead      time.Duration // spent reading the heap, not looping
		heapSeq       uint64
	)
	start := time.Now()
	deadline := start.Add(seconds)
	seq := uint64(1)
	for ; time.Now().Before(deadline); seq++ {
		// A traced run interleaves traced and untraced iterations, so
		// the tracing overhead is measured on the same run.
		on := trace && seq%2 == 0
		if tr != nil {
			tr.on.Store(on)
		}
		t0 := time.Now()
		w.iterate(seq)
		if on {
			traced = append(traced, ms(time.Since(t0)))
		} else {
			plain = append(plain, ms(time.Since(t0)))
		}
		if seq == heapAt {
			h0 := time.Now()
			rec.set("heap_mb", liveHeapMB())
			heapRead, heapSeq = time.Since(h0), seq
		}
	}
	elapsed := time.Since(start) - heapRead
	iters := seq - 1
	if tr != nil {
		tr.on.Store(false)
	}
	if err := reader.finish(rec); err != nil {
		return nil, err
	}
	rec.set("loop_per_s", float64(iters)/elapsed.Seconds())
	rec.set("go.gc_cycles", float64(gcCycles()-gc0))
	w.finish()
	if heapSeq == 0 {
		rec.set("heap_mb", liveHeapMB())
		heapSeq = iters
	}
	digestLine := b.dig.String()

	// Control arm: one override never reaches (or vanishes from) a
	// router; the decision check must count the cycle as failed.
	ctl := newRecorder()
	b.rec, b.tr, b.dig, b.applyTimeout = ctl, nil, newDigest(0), time.Second
	w.control()
	for i := 0; i < controlIters && ctl.failures["cycles"] == 0; i++ {
		w.iterate(seq)
		seq++
	}
	controlOK := w.faults() == 1 && ctl.failures["cycles"] > 0

	attempted, failed := rec.totals()
	fmt.Printf("workload %s seed %d: %d iterations in %.1fs, setups %v s\n", name, seed, iters, elapsed.Seconds(), roundAll(setupS))
	fmt.Printf("samples: %d cycle, %d apply, %d round, %d api\n", len(rec.series["cycle_ms"]), len(rec.series["apply_ms"]), len(rec.series["round_ms"]), len(rec.series["api_ms"]))
	fmt.Printf("decision digest: %s; live heap read after iteration %d\n", digestLine, heapSeq)
	for _, k := range sortedNames(rec.attempts) {
		fmt.Printf("operations %-16s attempted %d failed %d\n", k, rec.attempts[k], rec.failures[k])
	}
	fmt.Printf("control arm: %d delivery fault injected, %d failed cycles detected (want >= 1)\n", w.faults(), ctl.failures["cycles"])
	if !controlOK {
		fmt.Println("control arm: the decision check missed the injected fault")
	}

	out := &output{
		Correct:   failed == 0 && controlOK,
		Attempted: attempted,
		Failed:    failed,
	}
	if trace {
		out.Metrics = layerMetrics(rec, tr, plain, traced)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv.gz", name, seed))
		if err := tr.writeCSV(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", tr.count(), path)
	} else {
		out.Metrics = e2eMetrics(rec, median(setupS))
	}
	return out, nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1000)) / 1000
	}
	return out
}
