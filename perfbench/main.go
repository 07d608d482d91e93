// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator, checks the simulated outcome, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of its standard output, in JSON. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: node-hotpath, fleet-wide or control-churn")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "host seconds the run is sized for")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setupRepeats is how many times a run builds its fleet: set-up time is
// the median of these builds. The builds beyond the measured rounds stop
// at their first packet.
const setupRepeats = 3

// rounds is the number of whole rounds a run of the given length makes: as
// many as fit in three quarters of it on the reference host, at least one.
// It depends only on the arguments, so every run of a length does the same
// work.
func (w workloadSpec) rounds(seconds float64) int {
	return max(1, int(math.Round(0.75*seconds/w.roundSeconds)))
}

// run executes the workload's rounds, each on a freshly built fleet fed the
// same inputs, then checks them and reduces them to metrics. Every round
// must produce the same outcome hash.
func run(w workloadSpec, seed uint64, seconds float64, traced bool) (*result, error) {
	in := makeInputs(w, seed)
	n := w.rounds(seconds)
	var rounds []*roundResult
	var setups []float64
	spans := map[string][]float64{}
	var snapshotMS []float64
	probe := newSpeedProbe()
	for i := 0; i < max(n, setupRepeats); i++ {
		runtime.GC()
		scale := speedRefNS / probe.measure()
		f, err := buildFleet(w, seed, in)
		if err != nil {
			return nil, err
		}
		setups = append(setups, f.setup.Seconds()*scale)
		for k, v := range f.spans {
			spans[k] = append(spans[k], v*scale)
		}
		if i >= n {
			continue
		}
		r, err := f.run(w, in, traced, probe)
		if err != nil {
			return nil, err
		}
		if traced {
			scale := speedRefNS / probe.measure()
			t := time.Now()
			_ = f.c.Metrics().Prometheus()
			snapshotMS = append(snapshotMS, float64(time.Since(t).Nanoseconds())/1e6*scale)
		}
		rounds = append(rounds, r)
		fmt.Fprintf(os.Stderr, "%s round %d: setup %.3fs, %d slices at %.1f ns/pkt (%.1f as measured, probe %.0f ns), %d packets (%d lost), %d updates (%d not converged), outcome %016x\n",
			w.name, i+1, r.setup.Seconds(), len(r.slices), median(r.slices), median(r.rawSlices), median(r.probes), r.pkts, r.lost, r.updates, r.stale, r.hash)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var pkts, lost, updates, stale uint64
	for _, r := range rounds {
		pkts, lost = pkts+r.pkts, lost+r.lost
		updates, stale = updates+uint64(r.updates), stale+uint64(r.stale)
		if err := r.obs.check(); err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "%s: check failed: %v\n", w.name, err)
		}
		if r.hash != rounds[0].hash {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "%s: nondeterminism: outcome %016x != %016x\n", w.name, r.hash, rounds[0].hash)
		}
	}
	res.Attempted, res.Failed = pkts+updates, lost+stale
	fmt.Fprintf(os.Stderr, "%s: offered %d packets, delivered %d; issued %d spec updates, converged %d; outcome %016x\n",
		w.name, pkts, pkts-lost, updates, updates-stale, rounds[0].hash)

	var values map[string]float64
	defs := endToEnd
	if traced {
		scale := speedRefNS / probe.measure()
		drives, err := layerDrives(w, in)
		if err != nil {
			return nil, err
		}
		for k := range drives {
			drives[k] *= scale
		}
		values, err = perLayerValues(rounds, spans, drives, median(snapshotMS))
		if err != nil {
			return nil, err
		}
		defs = perLayer()
	} else {
		values = endToEndValues(rounds, setups)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("metric " + d.name + " has no finite value")
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return res, nil
}
