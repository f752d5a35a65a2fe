package main

import (
	"context"
	"net/http"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
)

// popPeak is the paper PoP under remote-mode transports on loopback:
// BMP over TCP through netsim bridges, iBGP over TCP through
// ConnectController plus a bridge, sFlow over UDP into a reuseport
// listener. One RunCycle per 30 s virtual tick from the 19:00 UTC
// evening peak.
type popPeak struct {
	common
	group
	seed int64

	cancel context.CancelFunc
	clock  *evening
	demand *netsim.DemandModel
	pop    *netsim.PoP
	in     *ingest
	ctrl   *core.Controller
}

// The paper PoP: 4000 prefixes, 400 Gbps peak, popsim's 1-in-8192
// sampling.
const (
	popPrefixes = 4000
	popPeakBps  = 400e9
	popSampling = 8192
)

func (w *popPeak) setup() error {
	sc, err := netsim.Synthesize(netsim.SynthConfig{Seed: w.seed, Prefixes: popPrefixes, PeakBps: popPeakBps})
	if err != nil {
		return err
	}
	w.demand, err = sc.NewDemand(netsim.DemandConfig{PeakBps: popPeakBps})
	if err != nil {
		return err
	}
	w.clock = newEvening()
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel

	mapper := &lateMapper{}
	w.in, err = startIngest(ctx, &w.group, mapper, w.clock.Now)
	if err != nil {
		return err
	}
	w.pop, err = netsim.NewPoP(netsim.PoPConfig{
		Scenario: sc, Demand: w.demand, Clock: w.clock.Clock,
		SFlowSink: w.in.sink, SamplingRate: popSampling,
	})
	if err != nil {
		return err
	}
	if err := w.pop.Start(ctx); err != nil {
		return err
	}
	cctx, ccancel := context.WithTimeout(ctx, 60*time.Second)
	defer ccancel()
	if err := w.pop.WaitConverged(cctx); err != nil {
		return err
	}
	inv, err := exp.InventoryFromTopology(sc.Topo)
	if err != nil {
		return err
	}
	w.ctrl, err = newController(inv, w.in.col, sc.Topo.LocalAS, w.clock.Now)
	if err != nil {
		return err
	}
	mapper.m.Store(w.ctrl.Store())

	// The controller attaches like edgefabricd to popsim: each router's
	// BMP feed and injection session behind its own loopback bridge.
	dumpStart := time.Now()
	for _, router := range w.pop.Routers() {
		bmpBr, err := netsim.NewBridge("127.0.0.1:0", w.pop.BMPConn(router))
		if err != nil {
			return err
		}
		w.serve(func() error { return bmpBr.Serve(ctx) })
		w.ctrl.AddBMPFeedDialer(router, tcpDialer(bmpBr.Addr().String()))

		conn, err := w.pop.ConnectController(router)
		if err != nil {
			return err
		}
		injBr, err := netsim.NewBridge("127.0.0.1:0", conn)
		if err != nil {
			return err
		}
		w.serve(func() error { return injBr.Serve(ctx) })
		addr := w.pop.RouterIP(router)
		if err := w.ctrl.AddInjectionSessionDialer(addr, w.tap.dialer(addr, injBr.Addr().String())); err != nil {
			return err
		}
	}
	expect := w.pop.ExpectedRoutes()
	if err := w.ctrl.WaitReady(cctx, expect); err != nil {
		return err
	}
	w.rec.set("bmp.dump_routes_per_s", float64(expect)/time.Since(dumpStart).Seconds())
	w.rec.attempt("bmp_routes", expect)
	if w.ctrl.Store().Table().RouteCount() != expect {
		w.rec.fail("bmp_routes", 1)
	}
	w.iterate(0)
	return nil
}

func (w *popPeak) handler() http.Handler { return singleAPI(w.ctrl) }

// iterate runs one closed-loop tick: the dataplane moves demand and
// exports sFlow, the collector drains it, virtual time advances, the
// controller cycles, and the loop waits until the routers hold exactly
// the controller's installed set.
func (w *popPeak) iterate(seq uint64) {
	rec, tr := w.rec, w.tr
	t0 := time.Now()
	root := tr.begin("loop", -1, seq)
	w.clock.wrap()

	h := tr.begin("netsim.tick", root, seq)
	sink := w.in.sink
	sink.under(rec, tr, h, seq)
	sent0, send0 := sink.sent, sink.sendTime
	ts := time.Now()
	stats := w.pop.Plane.Tick(w.clock.Now(), tickLen)
	tickWall := time.Since(ts)
	tr.end(h)
	if tr.active() {
		rec.sample("netsim.tick_ms", ms(tickWall-(sink.sendTime-send0)))
	}
	rec.add("netsim.offered_bps", stats.TotalDemandBps())
	rec.add("netsim.dropped_bps", stats.TotalDropsBps())
	rec.add("sflow.datagrams", float64(sink.sent-sent0))

	h = tr.begin("sflow.drain", root, seq)
	td := time.Now()
	sink.drain(2 * time.Second)
	rec.sample("sflow.drain_ms", ms(time.Since(td)))
	tr.end(h)
	w.clock.Advance(tickLen)

	w.cycleAndApply(w.ctrl, root, seq, func(want overrideSet) bool {
		return waitTable(w.pop.Table, want, func() overrideSet { return controllerRoutes(w.pop.Table) }, w.applyTimeout)
	})
	tr.end(root)
	rec.sample("round_ms", ms(time.Since(t0)))
}

// control arms the control arm: demand doubles, so the next cycles
// announce new overrides, and the tap swallows the first UPDATE.
func (w *popPeak) control() {
	surge(w.demand, w.clock.Now())
	w.tap.armed.Store(true)
}

func (w *popPeak) faults() uint64 { return w.tap.dropped.Load() }

func (w *popPeak) finish() {
	w.in.finish(w.rec)
	w.rec.set("rib.routes", float64(w.ctrl.Store().Table().RouteCount()))
	w.rec.set("bgp.bytes_out", float64(w.tap.bytes.Load()))
}

func (w *popPeak) close() {
	if w.ctrl != nil {
		w.ctrl.Close()
	}
	if w.cancel != nil {
		w.cancel()
	}
	if w.pop != nil {
		w.pop.Close()
	}
	w.in.close()
	w.wg.Wait()
}
