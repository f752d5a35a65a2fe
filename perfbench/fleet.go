package main

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
)

// fleet is 256 small PoPs in one process (exp.NewFleetHost): one shared
// sFlow demux, one supervisor, one API server. A round ticks every
// member's dataplane, runs FleetSupervisor.RunCycleAll with default
// workers, then waits until every member's routers hold its installed
// set.
type fleet struct {
	common
	seed int64

	fh      *exp.FleetHost
	armed   bool   // the next round drops one installed route
	removed uint64 // routes the control arm took from member routers
}

// Fleet inputs: 256 PoPs of 150 prefixes on a small peering mix, peaks
// staggered evenly around the clock so some members detour every round.
const (
	fleetPoPs     = 256
	fleetPrefixes = 150
	fleetPeakBps  = 10e9
)

func (w *fleet) setup() error {
	start := time.Date(2017, 3, 1, eveningStartHour, 0, 0, 0, time.UTC)
	fh, err := exp.NewFleetHost(context.Background(), exp.FleetConfig{
		Base: exp.HarnessConfig{
			Synth: netsim.SynthConfig{
				Seed:               w.seed,
				Prefixes:           fleetPrefixes,
				EdgeASes:           40,
				PrivatePeers:       4,
				PublicPeers:        8,
				RouteServerMembers: 10,
				PeakBps:            fleetPeakBps,
			},
			Demand:            netsim.DemandConfig{PeakBps: fleetPeakBps},
			Allocator:         core.AllocatorConfig{Threshold: 0.95},
			ControllerEnabled: true,
			Start:             start,
		},
		PoPs:            fleetPoPs,
		PeakHourSpreadH: 24.0 / fleetPoPs,
	})
	if err != nil {
		return err
	}
	w.fh = fh
	var routes int
	for _, h := range fh.PoPs {
		routes += h.PoP.ExpectedRoutes()
	}
	w.rec.attempt("bmp_routes", routes)
	w.iterate(0)
	return nil
}

func (w *fleet) handler() http.Handler { return w.fh.API.Handler() }

// memberSnap is one member's reading before a round.
type memberSnap struct {
	core  coreSnap
	churn uint64
}

func churnCount(ctrl *core.Controller) uint64 {
	m := ctrl.Metrics()
	return m.Counter("edgefabric_announcements_total").Value() + m.Counter("edgefabric_withdrawals_total").Value()
}

func (w *fleet) iterate(seq uint64) {
	rec, tr := w.rec, w.tr
	t0 := time.Now()
	root := tr.begin("loop", -1, seq)
	w.tickAll(root, seq)

	before := make([]memberSnap, len(w.fh.PoPs))
	for i, h := range w.fh.PoPs {
		before[i] = memberSnap{snapCore(h.Controller.Metrics()), churnCount(h.Controller)}
	}
	hr := tr.begin("core.round", root, seq)
	c0 := time.Now()
	st := w.fh.Supervisor.RunCycleAll()
	c1 := time.Now()
	tr.end(hr)
	rec.sample("cycle_ms", ms(c1.Sub(c0)))
	rec.attempt("cycles", st.Members)
	rec.fail("cycles", st.Errors)
	rec.add("core.overruns", float64(st.Overruns))
	if w.armed {
		w.armed = false
		w.dropOne()
	}

	hw := tr.begin("bgp.wire", root, seq)
	var busy, churn float64
	var overrides int
	for i, h := range w.fh.PoPs {
		ctrl := h.Controller
		after := snapCore(ctrl.Metrics())
		b := before[i].core
		member := after.cycleSec - b.cycleSec
		busy += member
		rec.sample("core.member_cycle_ms", member*1e3)
		for k, p := range phaseNames {
			rec.sample("core."+p+"_ms", (after.phaseSec[k]-b.phaseSec[k])*1e3)
		}
		rec.add("core.cycles", 1)
		rec.add("core.delta_unchanged_cycles", float64(after.unchanged-b.unchanged))
		rec.add("core.delta_recomputed", float64(after.recomputed-b.recomputed))
		rec.add("core.delta_rate_refresh", float64(after.rateOnly-b.rateOnly))
		churn += float64(churnCount(ctrl) - before[i].churn)

		want := installedSet(ctrl)
		overrides += len(want)
		healthy := core.HealthState(ctrl.Metrics().Gauge("edgefabric_health_state").Value()) == core.HealthHealthy
		if !healthy {
			rec.add("core.unhealthy_cycles", 1)
			rec.fail("cycles", 1)
		}
		applied := waitTable(h.PoP.Table, want, func() overrideSet { return controllerRoutes(h.PoP.Table) }, w.applyTimeout)
		// Members cycle inside RunCycleAll, so the installed set is the
		// decision the check compares the routers against.
		w.checkApplied(healthy, want, want, true, applied)
		w.dig.add(h.Scenario.Topo.Name, want)
	}
	a1 := time.Now()
	tr.end(hw)
	w.dig.endCycle()
	rec.sample("apply_ms", ms(a1.Sub(c0)))
	rec.sample("bgp.wire_ms", ms(a1.Sub(c1)))
	rec.sample("core.pool_busy", busy/(c1.Sub(c0).Seconds()*float64(w.workers())))
	rec.sample("core.overrides", float64(overrides))
	rec.sample("churn", churn)
	tr.end(root)
	rec.sample("round_ms", ms(time.Since(t0)))
}

// tickAll advances every member's dataplane one tick. Members are
// independent sites, so a pool of GOMAXPROCS tickers moves them
// concurrently, each exporting sFlow into the shared demux.
func (w *fleet) tickAll(root int, seq uint64) {
	type result struct {
		wall             time.Duration
		offered, dropped float64
	}
	res := make([]result, len(w.fh.PoPs))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				h := w.fh.PoPs[i]
				hs := w.tr.begin("netsim.tick", root, seq)
				ts := time.Now()
				stats := h.PoP.Plane.Tick(h.Clock.Now(), h.Cfg.TickLen)
				res[i] = result{time.Since(ts), stats.TotalDemandBps(), stats.TotalDropsBps()}
				w.tr.end(hs)
				h.Clock.Advance(h.Cfg.TickLen)
			}
		}()
	}
	for i := range w.fh.PoPs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, r := range res {
		w.rec.sample("netsim.tick_ms", ms(r.wall))
		w.rec.add("netsim.offered_bps", r.offered)
		w.rec.add("netsim.dropped_bps", r.dropped)
	}
}

// workers is the supervisor's default pool size (see
// core.FleetSupervisorConfig.Workers).
func (w *fleet) workers() int {
	return max(1, min(runtime.GOMAXPROCS(0), 16, len(w.fh.PoPs)))
}

// control arms the control arm: in the next round, right after the
// members cycle, one installed override vanishes from a member
// router's table. The fleet's iBGP sessions are in-process pipes the
// harness owns, so instead of swallowing an UPDATE on a conn the router
// loses a route the controller believes it holds; the decision check
// must catch it.
func (w *fleet) control() { w.armed = true }

// dropOne removes one installed override from the first member router
// that holds any.
func (w *fleet) dropOne() {
	for _, h := range w.fh.PoPs {
		for p := range controllerRoutes(h.PoP.Table) {
			h.PoP.Table.Remove(p, netsim.ControllerAddr)
			w.removed++
			return
		}
	}
}

func (w *fleet) faults() uint64 { return w.removed }

func (w *fleet) finish() {
	malformed, unknown := w.fh.Demux.Stats()
	w.rec.set("sflow.malformed", float64(malformed))
	w.rec.set("sflow.unknown_agent", float64(unknown))
	w.rec.fail("sflow_datagrams", int(malformed+unknown))
	var routes, expect int
	for _, h := range w.fh.PoPs {
		routes += h.Controller.Store().Table().RouteCount()
		expect += h.PoP.ExpectedRoutes()
		var sent uint64
		for _, a := range h.PoP.Agents() {
			n, _, _ := a.Stats()
			sent += n
		}
		d, bad, _ := h.Traffic.Stats()
		lost := sent - min(sent, d+bad)
		w.rec.attempt("sflow_datagrams", int(sent))
		w.rec.fail("sflow_datagrams", int(lost))
		w.rec.add("sflow.lost", float64(lost))
		w.rec.add("sflow.datagrams", float64(sent))
	}
	w.rec.set("rib.routes", float64(routes))
	if routes != expect {
		w.rec.fail("bmp_routes", 1)
	}
}

func (w *fleet) close() {
	if w.fh != nil {
		w.fh.Close()
	}
}
