package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/pprof"
	"time"

	"albatross/internal/cachesim"
	"albatross/internal/cluster"
	"albatross/internal/controlplane"
	"albatross/internal/core"
	"albatross/internal/flowtable"
	"albatross/internal/pod"
	"albatross/internal/service"
	"albatross/internal/sim"
	"albatross/internal/stats"
	"albatross/internal/workload"
)

// packetBytes is the wire size of every offered packet.
const packetBytes = 256

// inputs are everything a run feeds the program, generated once from the
// seed and replayed unchanged in every round.
type inputs struct {
	flows []workload.Flow
	svc   []service.Flow
	sched *schedule
	churn []churnUpdate
}

func makeInputs(w workloadSpec, seed uint64) *inputs {
	in := &inputs{flows: genFlows(seed, w.flows, w.tenants, w.prefixes)}
	in.svc = workload.ServiceFlows(in.flows, 0)
	// The sweep offers every flow once at the workload's rate: it fills the
	// modelled L3 before the Zipf traffic starts.
	z := newZipf(w.flows, w.zipfS)
	in.sched = genSchedule(seed, 0, []phase{
		{d: w.sweep(), pps: w.pps, batch: w.batch, sweep: w.flows},
		{d: w.warm + w.timed, pps: w.pps, batch: w.batch, z: z},
	})
	if w.churn {
		in.churn = churnSchedule(w)
	}
	return in
}

// sweep is how long offering every flow once takes at the workload's rate.
func (w workloadSpec) sweep() sim.Duration {
	return sim.Duration(float64(w.flows) / w.pps * float64(sim.Second))
}

// warmEnd is when the timed phase starts: after the sweep and the warm-up.
func (w workloadSpec) warmEnd() sim.Time { return sim.Time(w.sweep() + w.warm) }

// injector replays the schedule into the cluster: one engine event per
// batch, armed on the cluster's control clock.
type injector struct {
	c      *cluster.Cluster
	in     *inputs
	next   int
	counts []uint32 // injections per flow, for the ECMP tally check
	sent   uint64
}

func injectBatch(arg any) {
	d := arg.(*injector)
	s := d.in.sched
	for _, f := range s.flow[s.start[d.next]:s.start[d.next+1]] {
		d.c.Inject(d.in.flows[f], packetBytes)
		d.counts[f]++
	}
	d.sent += uint64(s.start[d.next+1] - s.start[d.next])
	d.next++
	if d.next < len(s.at) {
		d.c.Engine.AtArg(s.at[d.next], injectBatch, d)
	}
}

// counters is a snapshot of every program counter the benchmark reads.
type counters struct {
	tx           uint64
	events       uint64
	hits, misses uint64
	mallocs      uint64
	gcs          uint32
	gcPauseNS    uint64
	lat          *stats.Histogram
}

func snapshot(c *cluster.Cluster, withMem bool) counters {
	var k counters
	k.lat = stats.NewLatencyHistogram()
	engines := map[*sim.Engine]bool{c.Engine: true}
	numa := pod.DefaultServerConfig().Topology.Nodes
	for _, m := range c.Members() {
		engines[m.Node.Engine] = true
		for _, pr := range m.Node.Pods() {
			k.tx += pr.Tx
			k.lat.Merge(pr.Latency)
		}
		for i := 0; i < numa; i++ {
			k.hits += m.Node.Cache(i).Hits()
			k.misses += m.Node.Cache(i).Misses()
		}
	}
	for e := range engines {
		k.events += e.Executed()
	}
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		k.mallocs, k.gcs, k.gcPauseNS = ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	}
	return k
}

// lookupTally counts flow-table lookups across backend rollouts. A rollout
// replaces a member's backend with a fresh instance whose counters start at
// zero; the tally holds on to each instance it has seen, so lookups made on
// an instance before it was replaced are still read from it. It must be
// polled at least once between two rollouts of one member.
type lookupTally struct {
	inst  []flowtable.Backend
	seen  []uint64
	total uint64
}

func (l *lookupTally) poll(c *cluster.Cluster) {
	for i, m := range c.Members() {
		if i == len(l.inst) {
			l.inst, l.seen = append(l.inst, nil), append(l.seen, 0)
		}
		// Read out the instance held so far, replaced or not.
		if l.inst[i] != nil {
			n := l.inst[i].Stats().Lookups
			l.total += n - l.seen[i]
			l.seen[i] = n
		}
		// A rollout: count the new instance from its start.
		if b := m.Node.Backend(); b != l.inst[i] {
			l.inst[i], l.seen[i] = b, 0
			if b != nil {
				l.seen[i] = b.Stats().Lookups
				l.total += l.seen[i]
			}
		}
	}
}

// delivered sums egress packets across every pod of the fleet.
func delivered(c *cluster.Cluster) uint64 {
	var tx uint64
	for _, m := range c.Members() {
		for _, pr := range m.Node.Pods() {
			tx += pr.Tx
		}
	}
	return tx
}

// roundResult is what one round measured and observed.
type roundResult struct {
	setup time.Duration
	// slices is the host ns per delivered packet of each slice, and
	// sliceMS the host ms of each slice, both at the reference speed;
	// rawSlices is slices as measured, and probes the speed probes taken.
	slices    []float64
	sliceMS   []float64
	rawSlices []float64
	probes    []float64
	// profiled is the index of the first slice run under the CPU profiler
	// (len(slices) when the round was not traced).
	profiled int
	profile  []byte

	pkts, lost     uint64
	lookups        uint64 // flow-table lookups in the timed phase
	updates, stale int
	before, after  counters
	final          *stats.Histogram
	obs            observation
	hash           uint64
	// layer holds the per-layer counters read after the drain.
	layer map[string]float64
}

// cacheConfig is the per-NUMA L3 model of every member.
func (w workloadSpec) cacheConfig() cachesim.Config {
	if w.cacheMB == 0 {
		return cachesim.DefaultL3()
	}
	return cachesim.Config{SizeBytes: w.cacheMB << 20, Ways: 16, LineBytes: 64}
}

func (w workloadSpec) clusterConfig(seed uint64) cluster.Config {
	return cluster.Config{
		Nodes: w.nodes,
		Seed:  seed,
		Node: core.NodeConfig{
			Burst: w.burst, FlowBackend: w.backend, Cache: w.cacheConfig(),
		},
		Shards:        w.shards,
		SnapshotEvery: w.snapshotEvery,
	}
}

func (w workloadSpec) podConfig(in *inputs) core.PodConfig {
	return core.PodConfig{
		Spec: pod.Spec{Name: "gw", Service: service.VPCVPC,
			DataCores: w.dataCores, CtrlCores: w.ctrlCores, Mode: pod.ModePLB},
		Flows: in.svc,
	}
}

// fleet is a built cluster, ready for its first packet.
type fleet struct {
	c     *cluster.Cluster
	rec   *controlplane.Reconciler
	inj   *injector
	setup time.Duration
	spans map[string]float64
}

// buildFleet is the timed set-up: the cluster with its BGP sessions, the
// pods with their tables, and the reconciler, up to the first packet.
func buildFleet(w workloadSpec, seed uint64, in *inputs) (*fleet, error) {
	f := &fleet{spans: map[string]float64{}}
	t0 := time.Now()
	c, err := cluster.New(w.clusterConfig(seed))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := c.AddPod(w.podConfig(in)); err != nil {
		return nil, err
	}
	t2 := time.Now()
	f.spans["cluster.new_s"] = t1.Sub(t0).Seconds()
	f.spans["service.populate_s"] = t2.Sub(t1).Seconds()
	if w.churn {
		f.rec, err = controlplane.NewReconciler(c, initialSpec(w), controlplane.Config{})
		if err != nil {
			return nil, err
		}
	}
	f.spans["controlplane.new_s"] = time.Since(t2).Seconds()
	f.inj = &injector{c: c, in: in, counts: make([]uint32, len(in.flows))}
	c.Engine.AtArg(in.sched.at[0], injectBatch, f.inj)
	f.c = c
	f.setup = time.Since(t0)
	return f, nil
}

// run warms the fleet up, runs the timed phase in slices, drains it and
// observes the outcome. With traced set, the second half of the slices run
// under the CPU profiler. Everything it returns is deterministic for a
// fixed seed except the host times.
func (f *fleet) run(w workloadSpec, in *inputs, traced bool, probe *speedProbe) (*roundResult, error) {
	c := f.c
	res := &roundResult{setup: f.setup}
	warmEnd := w.warmEnd()
	c.RunUntil(warmEnd)
	res.before = snapshot(c, true)
	tally := &lookupTally{}
	tally.poll(c)
	tally.total = 0

	churn := &churnDriver{rec: f.rec, c: c, updates: in.churn, tally: tally}
	end := warmEnd.Add(w.timed)
	n := int((w.timed + w.slice - 1) / w.slice)
	res.profiled = n
	if traced {
		res.profiled = n / 2
	}
	var prof bytes.Buffer
	profiling := false
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
		}
	}()
	speed := &speedTrack{p: probe}
	speed.probe(0)
	var rawNS []float64
	var pkts []uint64
	tx := delivered(c)
	t := warmEnd
	for k := 0; k < n; k++ {
		next := t.Add(w.slice)
		if next > end {
			next = end
		}
		if k == res.profiled {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
			profiling = true
		}
		s := time.Now()
		if err := churn.runUntil(next); err != nil {
			return nil, err
		}
		dt := time.Since(s)
		now := delivered(c)
		if now <= tx {
			return nil, fmt.Errorf("%s: no packet delivered in slice %d", w.name, k)
		}
		rawNS = append(rawNS, float64(dt.Nanoseconds()))
		pkts = append(pkts, now-tx)
		tx = now
		t = next
		if k == n-1 || speed.due() {
			speed.probe(k + 1)
		}
	}
	if profiling {
		pprof.StopCPUProfile()
		profiling = false
		res.profile = prof.Bytes()
	}
	for k, ns := range rawNS {
		ns *= speed.scale(k)
		res.sliceMS = append(res.sliceMS, ns/1e6)
		res.slices = append(res.slices, ns/float64(pkts[k]))
		res.rawSlices = append(res.rawSlices, rawNS[k]/float64(pkts[k]))
	}
	res.probes = speed.ns
	res.after = snapshot(c, true)
	tally.poll(c)
	res.lookups = tally.total
	c.RunUntil(end.Add(w.drain))
	res.updates, res.stale = churn.finish()
	res.pkts = f.inj.sent
	if f.inj.next != len(in.sched.at) {
		return nil, fmt.Errorf("%s: injected %d of %d batches", w.name, f.inj.next, len(in.sched.at))
	}
	res.final = snapshot(c, false).lat
	res.obs = observe(c, f.inj, f.rec, res.final)
	res.lost = res.obs.lost()
	h := fnv.New64a()
	h.Write([]byte(c.Outcome()))
	if f.rec != nil {
		h.Write([]byte(f.rec.StepLog()))
	}
	res.hash = h.Sum64()
	res.layer = layerCounters(c, f.rec, churn)
	return res, nil
}

// layerCounters reads the counters the program exposes, per layer, after
// the round.
func layerCounters(c *cluster.Cluster, rec *controlplane.Reconciler, churn *churnDriver) map[string]float64 {
	out := map[string]float64{}
	var hol, timeouts, bestEffort, moved, desyncs float64
	stageHist := make([]*stats.Histogram, len(core.StageNames()))
	for i := range stageHist {
		stageHist[i] = stats.NewHistogram(6)
	}
	for _, m := range c.Members() {
		moved += float64(m.Node.BackendMoved)
		if p := m.Proxied(); p != nil {
			desyncs += float64(p.Desyncs)
		}
		for _, pr := range m.Node.Pods() {
			if pr.PLB != nil {
				s := pr.PLB.Stats()
				hol += float64(s.HOLEvents)
				timeouts += float64(s.TimeoutReleases)
				bestEffort += float64(s.EmittedBestEffort)
			}
			for si, h := range pr.StageResidency() {
				stageHist[si].Merge(h)
			}
		}
	}
	out["flowtable.moved"] = moved
	out["plb.hol_events"] = hol
	out["plb.timeout_releases"] = timeouts
	out["plb.best_effort"] = bestEffort
	for si, name := range core.StageNames() {
		out["core.stage."+name+".virt_p99_us"] = float64(stageHist[si].Quantile(0.99)) / 1e3
	}
	out["cluster.remapped"] = float64(c.Remapped)
	out["bgp.rib_routes"] = float64(ribRoutes(c))
	out["bgp.desyncs"] = desyncs
	if sw := c.SwitchModel(); sw != nil {
		out["bgp.peers"] = float64(sw.PeerCount())
	}
	out["controlplane.steps"], out["controlplane.ticks"], out["controlplane.converge_virt_ms"] = 0, 0, 0
	if rec != nil {
		out["controlplane.steps"] = float64(len(rec.Steps()))
		out["controlplane.ticks"] = float64(rec.Ticks())
		out["controlplane.converge_virt_ms"] = churn.meanConvergeMS()
	}
	return out
}
