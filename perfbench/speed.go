package main

import (
	"time"
)

// The host this benchmark runs on is shared, and its speed changes by up
// to 2x over minutes as other tenants come and go: the same binary on the
// same inputs took 3.2 µs per packet in one hour and 5.5 µs in another,
// with user time tracking wall time. A raw host time therefore cannot tell
// a regression from a busy neighbour. Every host time the benchmark
// reports is instead measured next to a fixed probe, and scaled by how
// much slower or faster the probe ran than its reference time:
//
//	reported = measured × speedRefNS / probe
//
// so it reads as "host time at the reference speed of this host". The
// probe is the benchmark's own code and does not change with the program,
// so a change to the program moves the reported time in full.

// speedRefNS is the probe's time on the reference host when it is quiet
// (README.md gives the host).
const speedRefNS = 1.04e6

const (
	probeSlots = 1 << 16 // 256 KB of uint32: a private-cache working set
	probeSteps = 200_000
	probeReps  = 3
	// probeEvery is the host time between probes during a timed phase.
	probeEvery = 200 * time.Millisecond
)

// speedProbe walks a random cycle through a table, doing a little integer
// work per step: dependent loads and branchy ALU work. Its table stays in
// the core's private caches, so it tracks the core's own speed (clock and
// a busy sibling thread, which is what slows this host down) and not the
// shared LLC, which made a larger probe too noisy to correct with.
type speedProbe struct {
	next []uint32
	sink uint64
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{next: make([]uint32, probeSlots)}
	// Sattolo's algorithm: one cycle through every slot.
	r := rng{s: 0x5eed}
	perm := make([]uint32, probeSlots)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := probeSlots - 1; i > 0; i-- {
		j := r.intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		p.next[perm[i]] = perm[(i+1)%probeSlots]
	}
	return p
}

// measure returns the fastest of probeReps walks, in ns: the fastest walk
// is the host's sustained speed, without one-off interrupts.
func (p *speedProbe) measure() float64 {
	best := 0.0
	for r := 0; r < probeReps; r++ {
		t := time.Now()
		i := uint32(r)
		x := uint64(r) + 1
		for s := 0; s < probeSteps; s++ {
			i = p.next[i]
			x = x*6364136223846793005 + uint64(i)
			if x>>63 != 0 {
				x ^= x >> 29
			}
		}
		p.sink += x
		ns := float64(time.Since(t).Nanoseconds())
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// speedTrack records probes taken between the slices of a timed phase.
type speedTrack struct {
	p    *speedProbe
	at   []int // probe k ran just before slice at[k]
	ns   []float64
	last time.Time
}

func (s *speedTrack) probe(slice int) {
	s.at = append(s.at, slice)
	s.ns = append(s.ns, s.p.measure())
	s.last = time.Now()
}

// due reports whether probeEvery has passed since the last probe.
func (s *speedTrack) due() bool { return time.Since(s.last) >= probeEvery }

// scale is the factor that takes slice k's host time to the reference
// speed: the mean of the probes on either side of it.
func (s *speedTrack) scale(k int) float64 {
	j := 0
	for j+1 < len(s.at) && s.at[j+1] <= k {
		j++
	}
	ns := s.ns[j]
	if j+1 < len(s.ns) {
		ns = (ns + s.ns[j+1]) / 2
	}
	return speedRefNS / ns
}
