package main

import (
	"context"
	"fmt"
	"net/http"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"edgefabric/internal/api"
	"edgefabric/internal/core"
	"edgefabric/internal/metrics"
	"edgefabric/internal/netsim"
	"edgefabric/internal/sflow"
)

// tickLen is the virtual time one closed-loop iteration covers: the
// paper's 30 s control cadence.
const tickLen = 30 * time.Second

// lateMapper maps sampled destinations through the controller's route
// store once the controller exists (the collector is built first), as
// edgefabricd's remote mode does.
type lateMapper struct {
	m atomic.Pointer[core.RouteStore]
}

func (l *lateMapper) MapPrefix(a netip.Addr) netip.Prefix {
	if s := l.m.Load(); s != nil {
		return s.LookupPrefix(a)
	}
	return netip.Prefix{}
}

// newController builds a controller with exactly what edgefabricd's
// remote mode sets — inventory, traffic source, allocator threshold,
// cycle interval, local AS — plus the virtual clock the benchmark
// drives time with.
func newController(inv *core.Inventory, traffic *sflow.Collector, localAS uint32, now func() time.Time) (*core.Controller, error) {
	return core.New(core.Config{
		Inventory:     inv,
		Traffic:       traffic,
		Allocator:     core.AllocatorConfig{Threshold: 0.95},
		CycleInterval: tickLen,
		LocalAS:       localAS,
		Now:           now,
	})
}

// newCollector builds the sFlow collector the way the simulation
// harness does for 30 s virtual ticks: a tick's datagrams all arrive at
// one virtual instant, so the window holds exactly two ticks and its
// buckets are one tick long. (A daemon on the wall clock, where
// datagrams arrive continuously, keeps the finer default buckets.)
func newCollector(m sflow.PrefixMapper, now func() time.Time) *sflow.Collector {
	return sflow.NewCollector(sflow.CollectorConfig{Mapper: m, Window: 2 * tickLen, Buckets: 2, Now: now})
}

// coreSnap is a reading of the counters and phase histograms a
// controller already exports through Controller.Metrics().
type coreSnap struct {
	phaseSec                                [4]float64 // collect, project, allocate, inject
	projectAllocs, allocateAllocs           float64
	cycleSec                                float64
	sweeps, unchanged, recomputed, rateOnly uint64
	overruns                                uint64
}

var phaseNames = [4]string{"collect", "project", "allocate", "inject"}

func snapCore(m *metrics.Registry) coreSnap {
	var s coreSnap
	for i, p := range phaseNames {
		s.phaseSec[i] = m.Histogram("edgefabric_phase_" + p + "_seconds").Sum()
	}
	s.projectAllocs = m.Histogram("edgefabric_phase_project_allocs").Sum()
	s.allocateAllocs = m.Histogram("edgefabric_phase_allocate_allocs").Sum()
	s.cycleSec = m.Histogram("edgefabric_cycle_seconds").Sum()
	s.sweeps = m.Counter("edgefabric_delta_full_sweeps_total").Value()
	s.unchanged = m.Counter("edgefabric_delta_unchanged_cycles_total").Value()
	s.recomputed = m.Counter("edgefabric_delta_recomputed_total").Value()
	s.rateOnly = m.Counter("edgefabric_delta_rate_refresh_total").Value()
	s.overruns = m.Counter("edgefabric_cycle_overruns_total").Value()
	return s
}

// cycleAndApply runs one controller cycle and books it: its wall time,
// the per-phase deltas of the controller's own histograms and
// counters, health and churn; then it waits until the routers hold the
// installed set (applied blocks until they do or times out) and runs
// the decision check.
func (c *common) cycleAndApply(ctrl *core.Controller, root int, seq uint64, applied func(overrideSet) bool) {
	rec, tr := c.rec, c.tr
	before := snapCore(ctrl.Metrics())
	h := tr.begin("core.cycle", root, seq)
	c0 := time.Now()
	report, err := ctrl.RunCycle()
	c1 := time.Now()
	tr.end(h)
	wall := c1.Sub(c0)

	after := snapCore(ctrl.Metrics())
	rec.attempt("cycles", 1)
	rec.sample("cycle_ms", ms(wall))
	for i, p := range phaseNames {
		rec.sample("core."+p+"_ms", (after.phaseSec[i]-before.phaseSec[i])*1e3)
	}
	rec.sample("core.project_allocs", after.projectAllocs-before.projectAllocs)
	rec.sample("core.allocate_allocs", after.allocateAllocs-before.allocateAllocs)
	if after.sweeps > before.sweeps {
		rec.sample("core.sweep_ms", ms(wall))
	}
	rec.add("core.delta_unchanged_cycles", float64(after.unchanged-before.unchanged))
	rec.add("core.delta_recomputed", float64(after.recomputed-before.recomputed))
	rec.add("core.delta_rate_refresh", float64(after.rateOnly-before.rateOnly))
	rec.add("core.overruns", float64(after.overruns-before.overruns))
	rec.add("core.cycles", 1)

	healthy := err == nil && report != nil && report.Health == core.HealthHealthy
	var decided overrideSet
	if report != nil {
		decided = reportSet(report)
		rec.sample("core.overrides", float64(len(report.Overrides)))
		rec.sample("churn", float64(report.Announced+report.Withdrawn))
		if report.Health != core.HealthHealthy {
			rec.add("core.unhealthy_cycles", 1)
		}
	}
	if !healthy {
		rec.fail("cycles", 1)
	}

	h = tr.begin("bgp.wire", root, seq)
	want := installedSet(ctrl)
	ok := applied(want)
	a1 := time.Now()
	tr.end(h)
	c.checkApplied(healthy, decided, want, c.tap.onWire(want), ok)
	rec.sample("apply_ms", ms(a1.Sub(c0)))
	rec.sample("bgp.wire_ms", ms(a1.Sub(c1)))
	c.dig.add("", want)
	c.dig.endCycle()
}

// group runs serve loops that a teardown waits for.
type group struct{ wg sync.WaitGroup }

func (g *group) serve(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		_ = fn() // serve loops end with the run's context; their failures surface as failed checks
	}()
}

// ingest is the remote-mode sFlow path of a single-PoP workload: a
// reuseport UDP listener served by the collector's reader pool, and the
// generator's sink sending to it over loopback.
type ingest struct {
	col  *sflow.Collector
	sink *flowSink
}

func startIngest(ctx context.Context, g *group, m sflow.PrefixMapper, now func() time.Time) (*ingest, error) {
	conns, err := sflow.ListenUDP("127.0.0.1:0", sflow.DefaultReaders())
	if err != nil {
		return nil, fmt.Errorf("sflow listen: %w", err)
	}
	in := &ingest{col: newCollector(m, now)}
	g.serve(func() error { return in.col.ServeUDPConns(ctx, conns) })
	in.sink, err = newFlowSink(conns[0].LocalAddr().String(), in.counted)
	if err != nil {
		return nil, err
	}
	return in, nil
}

// counted is how many datagrams the collector has seen, malformed ones
// included.
func (in *ingest) counted() uint64 {
	d, bad, _ := in.col.Stats()
	return d + bad
}

// finish books the run's datagram accounting.
func (in *ingest) finish(rec *recorder) {
	_, bad, _ := in.col.Stats()
	lost := in.sink.sent - min(in.sink.sent, in.counted())
	rec.attempt("sflow_datagrams", int(in.sink.sent))
	rec.fail("sflow_datagrams", int(lost+bad))
	rec.set("sflow.lost", float64(lost))
	rec.set("sflow.malformed", float64(bad))
}

func (in *ingest) close() {
	if in != nil && in.sink != nil {
		_ = in.sink.Close() // loopback socket; nothing buffered to lose
	}
}

// evening is a single-PoP workload's virtual clock. It starts at the
// 19:00 UTC evening peak and loops over the two peak hours (jumping to
// 19:00 the next day), so a faster program sees the same demand
// regime, only more often.
type evening struct {
	*netsim.Clock
	end time.Time
}

const (
	eveningStartHour = 19
	eveningWindow    = 2 * time.Hour
)

func newEvening() *evening {
	start := time.Date(2017, 3, 1, eveningStartHour, 0, 0, 0, time.UTC)
	return &evening{Clock: netsim.NewClock(start), end: start.Add(eveningWindow)}
}

func (e *evening) wrap() {
	if !e.Now().Before(e.end) {
		e.Advance(24*time.Hour - eveningWindow)
		e.end = e.end.Add(24 * time.Hour)
	}
}

// singleAPI serves one controller's state the way edgefabricd does.
func singleAPI(ctrl *core.Controller) http.Handler {
	srv := api.NewServer()
	_ = srv.AddPoP("pop-1", ctrl) // cannot fail: one named, non-nil PoP
	return srv.Handler()
}

// surge doubles demand from now on, so the cycles after it must
// announce new overrides (the control arm needs UPDATEs to drop).
func surge(d *netsim.DemandModel, now time.Time) {
	d.AddMod(netsim.DemandMod{Start: now, End: now.Add(24 * time.Hour), Multiplier: 2})
}
