package main

// e2eMetrics are what a user of the controller sees; they come from
// untraced runs only.
func e2eMetrics(rec *recorder, setupS float64) map[string]metric {
	m := make(map[string]metric)
	m["setup_s"] = metric{setupS, "s"}
	for _, s := range []string{"cycle_ms", "apply_ms", "round_ms"} {
		m[s+".p50"] = metric{rec.quantile(s, 0.5), "ms"}
		m[s+".p90"] = metric{rec.quantile(s, 0.9), "ms"}
	}
	// The API tail is a per-layer metric (api.latency_ms.p90): on
	// table-scale it sits on the steep ramp of requests that wait out a
	// preemption slice behind the projection workers, and its spread
	// across runs exceeds any bound the gate allows.
	m["api_ms.p50"] = metric{rec.quantile("api_ms", 0.5), "ms"}
	m["loop_per_s"] = metric{rec.values["loop_per_s"], "1/s"}
	m["heap_mb"] = metric{rec.values["heap_mb"], "MB"}
	return m
}

// layerMetrics is the per-layer split of a traced run: counters and
// histograms read from outside, timings of the benchmark's own calls
// into each layer, and span self time per layer.
func layerMetrics(rec *recorder, tr *tracer, plain, traced []float64) map[string]metric {
	m := make(map[string]metric)
	q := func(name, series string, p float64, unit string) {
		m[name] = metric{rec.quantile(series, p), unit}
	}
	v := rec.values
	perCycle := func(x float64) float64 {
		if v["core.cycles"] == 0 {
			return 0
		}
		return x / v["core.cycles"]
	}

	q("netsim.tick_ms.p50", "netsim.tick_ms", 0.5, "ms")
	m["netsim.drop_frac"] = metric{ratio(v["netsim.dropped_bps"], v["netsim.offered_bps"]), "ratio"}

	m["sflow.datagrams"] = metric{v["sflow.datagrams"], "count"}
	q("sflow.send_us.p50", "sflow.send_us", 0.5, "us")
	q("sflow.drain_ms.p50", "sflow.drain_ms", 0.5, "ms")
	q("sflow.drain_ms.p90", "sflow.drain_ms", 0.9, "ms")
	m["sflow.lost"] = metric{v["sflow.lost"], "count"}
	m["sflow.malformed"] = metric{v["sflow.malformed"], "count"}
	m["sflow.unknown_agent"] = metric{v["sflow.unknown_agent"], "count"}

	m["bmp.dump_routes_per_s"] = metric{v["bmp.dump_routes_per_s"], "1/s"}
	q("bmp.churn_ms.p50", "bmp.churn_ms", 0.5, "ms")
	m["rib.routes"] = metric{v["rib.routes"], "count"}

	for _, p := range phaseNames {
		q("core."+p+"_ms.p50", "core."+p+"_ms", 0.5, "ms")
		q("core."+p+"_ms.p90", "core."+p+"_ms", 0.9, "ms")
	}
	q("core.project_allocs.p50", "core.project_allocs", 0.5, "count")
	q("core.allocate_allocs.p50", "core.allocate_allocs", 0.5, "count")
	q("core.sweep_ms", "core.sweep_ms", 0.5, "ms")
	m["core.delta_recomputed"] = metric{perCycle(v["core.delta_recomputed"]), "count"}
	m["core.delta_rate_refresh"] = metric{perCycle(v["core.delta_rate_refresh"]), "count"}
	m["core.delta_unchanged_ratio"] = metric{perCycle(v["core.delta_unchanged_cycles"]), "ratio"}
	q("core.overrides", "core.overrides", 0.5, "count")
	m["core.churn_per_cycle"] = metric{mean(rec.series["churn"]), "count"}
	q("core.member_cycle_ms.p50", "core.member_cycle_ms", 0.5, "ms")
	q("core.member_cycle_ms.p90", "core.member_cycle_ms", 0.9, "ms")
	q("core.pool_busy", "core.pool_busy", 0.5, "ratio")
	m["core.overruns"] = metric{v["core.overruns"], "count"}
	m["core.unhealthy_cycles"] = metric{v["core.unhealthy_cycles"], "count"}

	q("bgp.wire_ms.p50", "bgp.wire_ms", 0.5, "ms")
	q("bgp.wire_ms.p90", "bgp.wire_ms", 0.9, "ms")
	m["bgp.bytes_out"] = metric{v["bgp.bytes_out"], "count"}

	q("api.summary_ms.p50", "api.summary_ms", 0.5, "ms")
	q("api.health_ms.p50", "api.health_ms", 0.5, "ms")
	q("api.lag_ms.p90", "api.lag_ms", 0.9, "ms")
	q("api.latency_ms.p90", "api_ms", 0.9, "ms")

	m["go.gc_cycles"] = metric{v["go.gc_cycles"], "count"}

	// Self time per traced iteration, per layer; "loop" is the
	// benchmark's own work between the calls it times.
	self := tr.selfTimes()
	for _, layer := range traceLayers {
		per := 0.0
		if len(traced) > 0 {
			per = ms(self[layer]) / float64(len(traced))
		}
		m["self."+layer+"_ms"] = metric{per, "ms"}
	}
	m["trace.overhead_frac"] = metric{ratio(median(traced), median(plain)) - 1, "ratio"}
	m["trace.spans"] = metric{float64(tr.count()), "count"}
	return m
}

// traceLayers are the span layers a traced run reports self time for.
var traceLayers = []string{"loop", "netsim", "sflow", "bmp", "core", "bgp", "api"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
