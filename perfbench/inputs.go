package main

import (
	"math"

	"albatross/internal/packet"
	"albatross/internal/sim"
	"albatross/internal/workload"
)

// rng is SplitMix64: the benchmark's own generator, so the inputs depend on
// the seed alone and never on a generator inside the program under test.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// genFlows makes n distinct tenant flows. Sources are distinct by
// construction (an odd multiplier permutes the 24-bit host space), so no
// two flows share a 5-tuple; destinations fall into `prefixes` /24 subnets,
// which is what the LPM tables are built from.
func genFlows(seed uint64, n, tenants, prefixes int) []workload.Flow {
	r := rng{s: seed ^ 0xf10f}
	nets := make([]uint32, prefixes)
	for i := range nets {
		nets[i] = 0x30000000 | uint32(r.next()&0x00ffff00)
	}
	flows := make([]workload.Flow, n)
	for i := range flows {
		src := 0x0a000000 | (uint32(i)*2654435761+uint32(seed))&0x00ffffff
		flows[i] = workload.Flow{
			Tuple: packet.FiveTuple{
				Src:   packet.IPv4FromUint32(src),
				Dst:   packet.IPv4FromUint32(nets[r.intn(prefixes)] | uint32(1+r.intn(254))),
				Proto: packet.IPProtocolTCP,
				SPort: uint16(1024 + r.intn(60000)),
				DPort: 443,
			},
			VNI: uint32(1 + r.intn(tenants)),
		}
	}
	return flows
}

// zipf samples flow indices with P(k) proportional to 1/(k+1)^s by Vose's
// alias method: O(1) per draw, so drawing stays cheap next to the program.
type zipf struct {
	prob  []float64
	alias []int32
}

func newZipf(n int, s float64) *zipf {
	w := make([]float64, n)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		sum += w[k]
	}
	z := &zipf{prob: make([]float64, n), alias: make([]int32, n)}
	var small, large []int32
	for k := range w {
		w[k] *= float64(n) / sum
		if w[k] < 1 {
			small = append(small, int32(k))
		} else {
			large = append(large, int32(k))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l, g := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		z.prob[l], z.alias[l] = w[l], g
		w[g] -= 1 - w[l]
		if w[g] < 1 {
			large = large[:len(large)-1]
			small = append(small, g)
		}
	}
	for _, k := range large {
		z.prob[k] = 1
	}
	for _, k := range small {
		z.prob[k] = 1
	}
	return z
}

func (z *zipf) draw(r *rng) int32 {
	k := r.intn(len(z.prob))
	if r.float() < z.prob[k] {
		return int32(k)
	}
	return z.alias[k]
}

// schedule is an open-loop arrival schedule in virtual time: batch i of
// packets flow[start[i]:start[i+1]] arrives at at[i]. Per-packet workloads
// use batches of one (Poisson arrivals); burst workloads offer NIC-sized
// batches that arrive at one instant, which is what burst dispatch batches.
type schedule struct {
	at    []sim.Time
	start []int32
	flow  []int32
	// phaseStart[i] is the index in flow of phase i's first packet.
	phaseStart []int
}

// phase is one stretch of a schedule: traffic at pps for d of virtual time,
// drawing flows from z (or sweeping every flow once, in order, when z is
// nil and sweep is set).
type phase struct {
	d     sim.Duration
	pps   float64
	batch int
	z     *zipf
	sweep int
}

// genSchedule lays phases end to end starting at t0. Gaps between batches
// are exponential with mean batch/pps.
func genSchedule(seed uint64, t0 sim.Time, phases []phase) *schedule {
	r := rng{s: seed ^ 0xa441}
	s := &schedule{}
	t := t0
	for _, ph := range phases {
		s.phaseStart = append(s.phaseStart, len(s.flow))
		end := t.Add(ph.d)
		mean := float64(ph.batch) / ph.pps * float64(sim.Second)
		next := 0
		for {
			gap := sim.Duration(-math.Log(1-r.float()) * mean)
			if gap < 1 {
				gap = 1
			}
			t = t.Add(gap)
			if t >= end {
				break
			}
			s.at = append(s.at, t)
			s.start = append(s.start, int32(len(s.flow)))
			for j := 0; j < ph.batch; j++ {
				if ph.z != nil {
					s.flow = append(s.flow, ph.z.draw(&r))
				} else {
					s.flow = append(s.flow, int32(next%ph.sweep))
					next++
				}
			}
		}
		t = end
	}
	s.start = append(s.start, int32(len(s.flow)))
	return s
}
