package main

import (
	"albatross/internal/sim"
)

// workloadSpec is the make-up of one workload's inputs and fleet. Every
// field is fixed per workload; only the seed varies between runs.
type workloadSpec struct {
	name string

	nodes   int
	shards  int
	cacheMB int // per-NUMA L3 model; 0 keeps the 100 MB default
	burst   int
	backend string
	// dataCores/ctrlCores size the one PLB pod every member runs.
	dataCores, ctrlCores int

	flows, tenants, prefixes int
	zipfS                    float64
	// pps is the offered rate for the whole fleet, in batches of batch
	// packets that arrive at one virtual instant.
	pps   float64
	batch int

	// warm is the untimed Zipf warm-up after one sweep over every flow (the
	// sweep fills the modelled L3 and faults its pages in); timed is one
	// round's measured span, cut into RunUntil slices of slice; drain lets
	// the last packets complete before the checks.
	warm, timed, slice, drain sim.Duration
	// roundSeconds is about how long one round (set-up, warm-up and timed
	// span) takes on the reference host (README.md); a run makes as many
	// whole rounds as fit in three quarters of --seconds, at least one.
	roundSeconds float64

	snapshotEvery sim.Duration
	// churn enables the control-plane schedule: a reconciler and timed
	// spec updates every updateEvery.
	churn       bool
	updateEvery sim.Duration
}

// workloads are the benchmark's three traffic mixes. Each runs below the
// capacity of its pods (at most about a third of the CPU), so a packet that
// is not delivered is a fault, not overload.
var workloads = []workloadSpec{
	{
		name:      "node-hotpath",
		nodes:     1,
		shards:    1,
		burst:     1,
		backend:   "session",
		dataCores: 8, ctrlCores: 2,
		flows: 200_000, tenants: 1000, prefixes: 4096, zipfS: 0.9,
		pps: 4e6, batch: 1,
		warm: 25 * sim.Millisecond, timed: 600 * sim.Millisecond,
		slice: sim.Millisecond, drain: sim.Millisecond,
		roundSeconds: 7.5,
	},
	{
		name:      "fleet-wide",
		nodes:     16,
		shards:    2,
		cacheMB:   2,
		burst:     32,
		backend:   "othello",
		dataCores: 8, ctrlCores: 2,
		flows: 40_000, tenants: 200, prefixes: 1024, zipfS: 0.5,
		pps: 16e6, batch: 32,
		warm: 5 * sim.Millisecond, timed: 100 * sim.Millisecond,
		slice: sim.Millisecond / 4, drain: sim.Millisecond,
		roundSeconds: 2.5,
	},
	{
		name:      "control-churn",
		nodes:     8,
		shards:    1,
		cacheMB:   2,
		burst:     1,
		backend:   "session",
		dataCores: 2, ctrlCores: 1,
		flows: 2_000, tenants: 100, prefixes: 256, zipfS: 0.9,
		pps: 2e3, batch: 1,
		warm: 20 * sim.Millisecond, timed: 60 * 540 * sim.Millisecond,
		slice: 540 * sim.Millisecond, drain: sim.Millisecond,
		roundSeconds:  0.5,
		snapshotEvery: 100 * sim.Microsecond,
		churn:         true,
		updateEvery:   60 * sim.Millisecond,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
