package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"albatross/internal/controlplane"
	"albatross/internal/sim"
	"albatross/internal/stats"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		w := smoke(w)
		a, b := makeInputs(w, 7), makeInputs(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		c := makeInputs(w, 8)
		if reflect.DeepEqual(a.flows, c.flows) || reflect.DeepEqual(a.sched, c.sched) {
			t.Errorf("%s: seeds 7 and 8 generated the same flows or schedule", w.name)
		}
	}
}

func TestFlowsDistinct(t *testing.T) {
	flows := genFlows(3, 100_000, 50, 128)
	seen := map[any]bool{}
	for _, f := range flows {
		if seen[f.Tuple] {
			t.Fatalf("duplicate 5-tuple %v", f.Tuple)
		}
		seen[f.Tuple] = true
		if f.VNI < 1 || f.VNI > 50 {
			t.Fatalf("VNI %d outside the 50 tenants", f.VNI)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(1000, 0.9)
	r := rng{s: 1}
	counts := make([]int, 1000)
	for i := 0; i < 200_000; i++ {
		counts[z.draw(&r)]++
	}
	if !(counts[0] > counts[9] && counts[9] > counts[99] && counts[99] > counts[999]) {
		t.Fatalf("draws are not Zipf-skewed: %d %d %d %d", counts[0], counts[9], counts[99], counts[999])
	}
}

// goodObservation is a consistent round: 100 packets, two members, all
// delivered, every stage balanced.
func goodObservation() observation {
	spec := controlplane.ClusterSpec{Members: []controlplane.MemberSpec{
		{Weight: 1, Pods: 1, Admin: controlplane.AdminUp},
		{Weight: 0.5, Pods: 2, Admin: controlplane.AdminDrained, Backend: "othello"},
	}}
	return observation{
		injected: 100, sprayed: 100,
		memberRx: []uint64{60, 40},
		tally:    []uint64{60, 40},
		tx:       100, latCount: 100, latMinNS: tab4FloorNS + 400,
		stages: []stageObs{{"node0/pod0/cpu", 60, 60, 0}, {"node1/pod0/cpu", 40, 39, 1}},
		members: []memberObs{
			{adminUp: true, weight: 1, activePods: 1, backend: "session"},
			{adminUp: false, weight: 0.5, activePods: 2, backend: "othello"},
		},
		spec:      &spec,
		ribRoutes: 1,
	}
}

func TestChecksAcceptGood(t *testing.T) {
	if err := goodObservation().check(); err != nil {
		t.Fatal(err)
	}
}

func TestChecksRejectFabricatedResults(t *testing.T) {
	cases := map[string]func(o *observation){
		"missing packet at the switch": func(o *observation) { o.sprayed = 99 },
		"missing packet at a member":   func(o *observation) { o.memberRx[1] = 39; o.tally[1] = 39 },
		"more sent than injected":      func(o *observation) { o.tx = 101; o.latCount = 101 },
		"stage imbalance":              func(o *observation) { o.stages[1].out = 40 },
		"route tally differs":          func(o *observation) { o.tally = []uint64{59, 41} },
		"latency below the floor":      func(o *observation) { o.latMinNS = tab4FloorNS - 1 },
		"latency sample missing":       func(o *observation) { o.latCount = 99 },
		"member count differs":         func(o *observation) { o.members = o.members[:1] },
		"weight differs":               func(o *observation) { o.members[1].weight = 1 },
		"admin differs":                func(o *observation) { o.members[1].adminUp = true; o.ribRoutes = 2 },
		"pod count differs":            func(o *observation) { o.members[1].activePods = 1 },
		"backend differs":              func(o *observation) { o.members[1].backend = "session" },
		"RIB route count differs":      func(o *observation) { o.ribRoutes = 2 },
	}
	for name, corrupt := range cases {
		o := goodObservation()
		corrupt(&o)
		if err := o.check(); err == nil {
			t.Errorf("%s: check accepted it", name)
		}
	}
}

func TestLostCountsUndelivered(t *testing.T) {
	o := goodObservation()
	o.tx = 97
	if o.lost() != 3 {
		t.Fatalf("lost = %d, want 3", o.lost())
	}
}

// TestBucketBounds pins the benchmark's copy of the latency histogram's
// bucket layout to stats.Histogram.
func TestBucketBounds(t *testing.T) {
	for _, v := range []int64{0, 1, 255, 256, 511, 512, 513, 8070, 8650, 9553, 123_456, 10_000_000} {
		h := stats.NewLatencyHistogram()
		h.Record(v)
		snap := h.BucketSnapshot(nil)
		i := bucketOf(v)
		if snap[i] != 1 {
			t.Fatalf("value %d: histogram did not use bucket %d", v, i)
		}
		lo, width := bucketBounds(i)
		if float64(v) < lo || float64(v) >= lo+width {
			t.Fatalf("value %d outside bucket %d [%g, %g)", v, i, lo, lo+width)
		}
		if lo > 0 && bucketOf(int64(lo)-1) == i {
			t.Fatalf("bucket %d starts before %g", i, lo)
		}
		if bucketOf(int64(lo+width)) == i {
			t.Fatalf("bucket %d extends past %g", i, lo+width)
		}
	}
}

func TestDeltaQuantile(t *testing.T) {
	h := stats.NewLatencyHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(5000)
	}
	prev := h.BucketSnapshot(nil)
	for i := int64(1); i <= 1000; i++ {
		h.Record(8000 + i)
	}
	got := deltaQuantile(h.BucketSnapshot(nil), prev, 0.5)
	if got < 8400 || got > 8600 {
		t.Fatalf("median of 8001..9000 = %g", got)
	}
}

func burn(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	sink := burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	byPkg, total, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The test binary names the package by its import path.
	if total < 10 || float64(byPkg["perfbench"])/float64(total) < 0.5 {
		t.Fatalf("profile of a busy loop in main: %v of %d samples (sink %d)", byPkg, total, sink)
	}
	if _, _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Fatal("folded garbage")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"albatross/internal/cachesim.(*Cache).Access": "cachesim",
		"albatross/internal/sim.(*Engine).RunUntil":   "sim",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "runtime",
		"main.injectBatch":                            "main",
		"sort.Float64s":                               "sort",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the benchmark
// prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, benchmark runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics listed, %d reported", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: listed %+v, reported %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer())
}

// smoke shrinks a workload to a quick run of the same shape.
func smoke(w workloadSpec) workloadSpec {
	w.flows /= 20
	w.warm = 2 * w.slice
	if w.churn {
		w.warm = w.updateEvery
		w.timed = 2 * w.slice
	} else {
		w.timed = 4 * w.slice
	}
	w.roundSeconds = 1e9
	return w
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(smoke(w), 3, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			// Node.Ingress consults the flow-table backend once per packet,
			// across every backend rollout control-churn makes.
			if v := res.Metrics["flowtable.lookups_per_pkt"].Value; traced && (v < 0.9 || v > 1.1) {
				t.Fatalf("%s: %g flow-table lookups per packet, want about 1", w.name, v)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.name]; !traced && (!ok || v.Value <= 0) {
					t.Fatalf("%s: end-to-end metric %s = %v", w.name, d.name, v)
				}
			}
		}
	}
}

func TestChurnScheduleConverges(t *testing.T) {
	w, _ := findWorkload("control-churn")
	ups := churnSchedule(w)
	if len(ups) < 10 || !strings.HasPrefix(ups[0].what, "canary-add") {
		t.Fatalf("schedule starts %v with %d updates", ups[0].what, len(ups))
	}
	end := w.warmEnd().Add(w.timed)
	for i, u := range ups {
		if u.at.Add(w.updateEvery) > end {
			t.Fatalf("update %d (%s) at %v leaves no time to converge before %v", i, u.what, u.at, end)
		}
		if err := u.spec.Validate(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	_ = sim.Second
}
