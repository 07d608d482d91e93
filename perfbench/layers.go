package main

import (
	"fmt"
	"time"

	"albatross/internal/bgp"
	"albatross/internal/cachesim"
	"albatross/internal/flowtable"
	"albatross/internal/gop"
	"albatross/internal/lpm"
	"albatross/internal/packet"
	"albatross/internal/plb"
	"albatross/internal/sim"
)

// The isolated drives replay one workload's own inputs — its 5-tuples,
// destination prefixes, VNIs, arrival times and core count — straight into
// each layer's public API, outside the simulation, and time each layer
// alone in host ns per operation (the median of driveReps repetitions).

const (
	driveReps = 5
	driveOps  = 200_000 // packets replayed per read drive
)

// timeNS runs op driveReps times and returns the median ns per operation.
func timeNS(ops int, op func()) float64 {
	var per []float64
	for r := 0; r < driveReps; r++ {
		t := time.Now()
		op()
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(ops))
	}
	return median(per)
}

func layerDrives(w workloadSpec, in *inputs) (map[string]float64, error) {
	out := map[string]float64{}
	// The replayed packets: the first driveOps Zipf arrivals after the sweep.
	zipfStart := in.sched.phaseStart[1]
	seq := in.sched.flow[zipfStart:]
	if len(seq) > driveOps {
		seq = seq[:driveOps]
	}
	flows := in.flows

	// flowtable: inserts of every flow into a fresh table, then lookups.
	var tab *flowtable.Table
	out["flowtable.insert_ns"] = timeNS(len(flows), func() {
		tab = flowtable.NewTableIn(flowtable.NewAddrSpace(), "bench", 128)
		for i, f := range flows {
			tab.Insert(f.Tuple, uint64(i))
		}
	})
	var found int
	out["flowtable.lookup_ns"] = timeNS(len(seq), func() {
		for _, fi := range seq {
			if tab.Lookup(flows[fi].Tuple) != nil {
				found++
			}
		}
	})
	if found != driveReps*len(seq) {
		return nil, fmt.Errorf("flowtable drive: %d of %d lookups found their entry", found, driveReps*len(seq))
	}

	// cachesim: the entries' synthetic addresses, in packet order.
	addrs := make([]uint64, len(seq))
	for i, fi := range seq {
		addrs[i] = tab.Lookup(flows[fi].Tuple).Addr
	}
	cache := cachesim.New(w.cacheConfig())
	for _, a := range addrs {
		cache.Access(a, 128)
	}
	out["cachesim.access_ns"] = timeNS(len(addrs), func() {
		for _, a := range addrs {
			cache.Access(a, 128)
		}
	})

	// lpm: the /24 route of every flow's destination, then lookups.
	var routes *lpm.Table
	out["lpm.insert_ns"] = timeNS(len(flows), func() {
		routes = lpm.New()
		for i, f := range flows {
			_ = routes.Insert(lpm.Canonical(f.Tuple.Dst.Uint32(), 24), 24, uint32(i))
		}
	})
	var hit int
	out["lpm.lookup_ns"] = timeNS(len(seq), func() {
		for _, fi := range seq {
			if _, ok := routes.Lookup(flows[fi].Tuple.Dst.Uint32()); ok {
				hit++
			}
		}
	})
	if hit != driveReps*len(seq) {
		return nil, fmt.Errorf("lpm drive: %d of %d lookups matched", hit, driveReps*len(seq))
	}

	// plb: dispatch each packet and return it at once, in order.
	hashes := make([]uint32, len(seq))
	for i, fi := range seq {
		hashes[i] = flows[fi].Tuple.Hash()
	}
	eng := sim.NewEngine()
	var emitted int
	p, err := plb.New(eng, plb.DefaultConfig(0, w.dataCores), func(plb.Emission) { emitted++ })
	if err != nil {
		return nil, err
	}
	out["plb.dispatch_return_ns"] = timeNS(len(hashes), func() {
		for _, h := range hashes {
			if _, meta, ok := p.Dispatch(h); ok {
				p.Return(nil, meta)
			}
		}
	})
	if emitted != driveReps*len(hashes) {
		return nil, fmt.Errorf("plb drive: %d of %d packets emitted", emitted, driveReps*len(hashes))
	}

	// gop: the overload meters, fed each packet's VNI at its arrival time.
	lim, err := gop.NewLimiter(gop.DefaultConfig())
	if err != nil {
		return nil, err
	}
	times := arrivalTimes(in.sched, zipfStart, len(seq))
	out["gop.process_ns"] = timeNS(len(seq), func() {
		for i, fi := range seq {
			lim.Process(flows[fi].VNI, times[i])
		}
	})

	// sim: schedule every arrival as an event, then run the heap dry.
	var fired int
	fire := func(any) { fired++ }
	out["sim.schedule_run_ns"] = timeNS(len(times), func() {
		e := sim.NewEngine()
		for _, t := range times {
			e.AtArg(t, fire, nil)
		}
		e.Run()
	})
	if fired != driveReps*len(times) {
		return nil, fmt.Errorf("sim drive: %d of %d events fired", fired, driveReps*len(times))
	}

	// bgp: encode and decode one UPDATE per destination /24.
	var nlri []bgp.Prefix
	seen := map[uint32]bool{}
	for _, f := range flows {
		p24 := lpm.Canonical(f.Tuple.Dst.Uint32(), 24)
		if !seen[p24] {
			seen[p24] = true
			nlri = append(nlri, bgp.Prefix{Addr: packet.IPv4FromUint32(p24), Len: 24})
		}
	}
	var decoded int
	var codecErr error
	out["bgp.update_codec_ns"] = timeNS(len(nlri), func() {
		for _, pfx := range nlri {
			msg := bgp.EncodeUpdate(bgp.Update{
				Attrs: bgp.PathAttrs{ASPath: []uint16{65001, 65000}, NextHop: pfx.Addr},
				NLRI:  []bgp.Prefix{pfx},
			})
			if _, _, err := bgp.DecodeHeader(msg[:19]); err != nil {
				codecErr = err
				continue
			}
			u, err := bgp.DecodeUpdate(msg[19:])
			if err != nil {
				codecErr = err
				continue
			}
			decoded += len(u.NLRI)
		}
	})
	if codecErr != nil || decoded != driveReps*len(nlri) {
		return nil, fmt.Errorf("bgp drive: %d of %d prefixes decoded: %v", decoded, driveReps*len(nlri), codecErr)
	}
	return out, nil
}

// arrivalTimes returns the arrival times of the n packets from index from on.
func arrivalTimes(s *schedule, from, n int) []sim.Time {
	out := make([]sim.Time, 0, n)
	for b := 0; b < len(s.at) && len(out) < n; b++ {
		for j := int(s.start[b]); j < int(s.start[b+1]) && len(out) < n; j++ {
			if j >= from {
				out = append(out, s.at[b])
			}
		}
	}
	return out
}
