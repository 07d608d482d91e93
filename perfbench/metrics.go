package main

import (
	"fmt"
	"os"
	"strings"

	"albatross/internal/core"
)

// metricDef names one reported metric, its unit and which way is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, reported with
// --trace 0 on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_ns_per_pkt", "ns/pkt", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"virt_lat_p50_us", "us", "lower"},
	{"virt_lat_p999_us", "us", "lower"},
}

// profiledPackages are the layers the CPU profile is folded into.
var profiledPackages = []string{
	"cachesim", "sim", "core", "plb", "service", "flowtable", "lpm",
	"cluster", "bgp", "controlplane", "metrics", "runtime",
}

// perLayer are the metrics of single layers, reported with --trace 1.
func perLayer() []metricDef {
	defs := []metricDef{
		{"cluster.new_s", "s", "lower"},
		{"service.populate_s", "s", "lower"},
		{"controlplane.new_s", "s", "lower"},
		{"cluster.slice_ms_p50", "ms", "lower"},
		{"cluster.slice_ms_p99", "ms", "lower"},
		{"metrics.snapshot_ms", "ms", "lower"},
		{"sim.events_per_pkt", "1/pkt", "lower"},
		{"sim.host_ns_per_event", "ns", "lower"},
		{"cachesim.accesses_per_pkt", "1/pkt", "lower"},
		{"cachesim.hit_rate", "ratio", "higher"},
		{"flowtable.lookups_per_pkt", "1/pkt", "lower"},
		{"flowtable.moved", "count", "lower"},
		{"plb.hol_events", "count", "lower"},
		{"plb.timeout_releases", "count", "lower"},
		{"plb.best_effort", "count", "lower"},
	}
	for _, s := range core.StageNames() {
		defs = append(defs, metricDef{"core.stage." + s + ".virt_p99_us", "us", "lower"})
	}
	defs = append(defs,
		metricDef{"cluster.remapped", "count", "lower"},
		metricDef{"bgp.rib_routes", "count", "lower"},
		metricDef{"bgp.peers", "count", "lower"},
		metricDef{"bgp.desyncs", "count", "lower"},
		metricDef{"controlplane.steps", "count", "lower"},
		metricDef{"controlplane.ticks", "count", "lower"},
		metricDef{"controlplane.converge_virt_ms", "ms", "lower"},
		metricDef{"runtime.allocs_per_pkt", "1/pkt", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
		metricDef{"cachesim.access_ns", "ns", "lower"},
		metricDef{"flowtable.lookup_ns", "ns", "lower"},
		metricDef{"lpm.lookup_ns", "ns", "lower"},
		metricDef{"plb.dispatch_return_ns", "ns", "lower"},
		metricDef{"gop.process_ns", "ns", "lower"},
		metricDef{"sim.schedule_run_ns", "ns", "lower"},
		metricDef{"flowtable.insert_ns", "ns", "lower"},
		metricDef{"lpm.insert_ns", "ns", "lower"},
		metricDef{"bgp.update_codec_ns", "ns", "lower"},
	)
	for _, p := range profiledPackages {
		defs = append(defs, metricDef{"prof." + p + ".share", "ratio", "lower"})
	}
	return append(defs,
		metricDef{"host.raw_ns_per_pkt", "ns/pkt", "lower"},
		metricDef{"host.speed", "ratio", "higher"},
		metricDef{"trace.host_ns_per_pkt", "ns/pkt", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}

// endToEndValues reduces the rounds of an untraced run.
func endToEndValues(rounds []*roundResult, setups []float64) map[string]float64 {
	var slices []float64
	for _, r := range rounds {
		slices = append(slices, r.slices...)
	}
	r0 := rounds[0]
	cur, prev := r0.final.BucketSnapshot(nil), r0.before.lat.BucketSnapshot(nil)
	return map[string]float64{
		"setup_s":          median(setups),
		"host_ns_per_pkt":  median(slices),
		"peak_rss_mb":      peakRSSMB(),
		"virt_lat_p50_us":  deltaQuantile(cur, prev, 0.5) / 1e3,
		"virt_lat_p999_us": deltaQuantile(cur, prev, 0.999) / 1e3,
	}
}

// perLayerValues reduces the rounds of a traced run. Counters come from the
// first round (every round repeats them exactly); host times are medians
// over every round.
func perLayerValues(rounds []*roundResult, spans map[string][]float64, drives map[string]float64, snapshotMS float64) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range spans {
		out[k] = median(v)
	}
	var untraced, traced, sliceMS, raw, probes []float64
	profile := map[string]int64{}
	var samples int64
	for _, r := range rounds {
		untraced = append(untraced, r.slices[:r.profiled]...)
		traced = append(traced, r.slices[r.profiled:]...)
		sliceMS = append(sliceMS, r.sliceMS...)
		raw = append(raw, r.rawSlices[:r.profiled]...)
		probes = append(probes, r.probes...)
		if len(r.profile) > 0 {
			byPkg, n, err := foldProfile(r.profile)
			if err != nil {
				return nil, err
			}
			for p, c := range byPkg {
				profile[p] += c
			}
			samples += n
		}
	}
	out["cluster.slice_ms_p50"] = quantile(sliceMS, 0.5)
	out["cluster.slice_ms_p99"] = quantile(sliceMS, 0.99)
	out["metrics.snapshot_ms"] = snapshotMS
	out["host.raw_ns_per_pkt"] = median(raw)
	out["host.speed"] = speedRefNS / median(probes)
	out["trace.host_ns_per_pkt"] = median(traced)
	out["trace.overhead_pct"] = 100 * (median(traced)/median(untraced) - 1)
	for _, p := range profiledPackages {
		out["prof."+p+".share"] = 0
		if samples > 0 {
			out["prof."+p+".share"] = float64(profile[p]) / float64(samples)
		}
	}

	r0 := rounds[0]
	b, a := r0.before, r0.after
	pkts := float64(a.tx - b.tx)
	var timedNS float64
	for _, ms := range r0.sliceMS {
		timedNS += ms * 1e6
	}
	out["sim.events_per_pkt"] = float64(a.events-b.events) / pkts
	out["sim.host_ns_per_event"] = timedNS / float64(a.events-b.events)
	acc := float64(a.hits + a.misses - b.hits - b.misses)
	out["cachesim.accesses_per_pkt"] = acc / pkts
	out["cachesim.hit_rate"] = float64(a.hits-b.hits) / acc
	out["flowtable.lookups_per_pkt"] = float64(r0.lookups) / pkts
	out["runtime.allocs_per_pkt"] = float64(a.mallocs-b.mallocs) / pkts
	out["runtime.gc_cycles"] = float64(a.gcs - b.gcs)
	out["runtime.gc_pause_ms"] = float64(a.gcPauseNS-b.gcPauseNS) / 1e6
	for k, v := range r0.layer {
		out[k] = v
	}
	for k, v := range drives {
		out[k] = v
	}
	for _, d := range perLayer() {
		if _, ok := out[d.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
	}
	return out, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb); err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
