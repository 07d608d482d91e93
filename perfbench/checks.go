package main

import (
	"fmt"

	"albatross/internal/cluster"
	"albatross/internal/controlplane"
	"albatross/internal/core"
	"albatross/internal/stats"
)

// tab4FloorNS is the sum of the fixed per-module NIC latencies of the
// paper's Tab. 4 on the PLB path, ingress plus egress: basic 0.58+0.84,
// overload detection 0.10+0, PLB 0.05+0.35 and DMA 3.17+2.98 µs. No packet
// can cross the modelled NIC faster; CPU service time only adds to it.
const tab4FloorNS = 580 + 100 + 50 + 3170 + 840 + 0 + 350 + 2980

// stageObs is one pipeline stage's conservation counters on one pod.
type stageObs struct {
	where          string
	in, out, drops uint64
}

// memberObs is one member's observed control state.
type memberObs struct {
	removed    bool
	adminUp    bool
	weight     float64
	activePods int
	backend    string
}

// observation is everything the checks read from a finished round. The
// checks take it as plain data so the tests can fabricate wrong results.
type observation struct {
	injected    uint64   // the benchmark's own count
	sprayed     uint64   // Cluster.Sprayed
	switchDrops uint64   // Cluster.Drops
	blackholed  uint64   // Cluster.Blackholed()
	memberRx    []uint64 // Member.Rx
	// tally is the benchmark's per-member count of its injections by
	// Route() owner; nil when members changed state during the round.
	tally     []uint64
	tx        uint64 // sum of pod Tx
	latCount  uint64 // samples in the merged latency histogram
	latMinNS  int64
	stages    []stageObs
	members   []memberObs
	spec      *controlplane.ClusterSpec // the spec last set, nil without churn
	ribRoutes int
}

// lost is the number of offered packets that were not delivered.
func (o observation) lost() uint64 {
	if o.tx >= o.injected {
		return 0
	}
	return o.injected - o.tx
}

func observe(c *cluster.Cluster, inj *injector, rec *controlplane.Reconciler, lat *stats.Histogram) observation {
	o := observation{
		injected:    inj.sent,
		sprayed:     c.Sprayed,
		switchDrops: c.Drops,
		blackholed:  c.Blackholed(),
		ribRoutes:   ribRoutes(c),
		members:     memberObservations(c),
	}
	o.latCount, o.latMinNS = lat.Count(), lat.Min()
	for _, m := range c.Members() {
		o.memberRx = append(o.memberRx, m.Rx)
		for pi, pr := range m.Node.Pods() {
			o.tx += pr.Tx
			for si, st := range pr.Stages() {
				o.stages = append(o.stages, stageObs{
					where: fmt.Sprintf("node%d/pod%d/%s", m.Index, pi, core.StageNames()[si]),
					in:    st.In, out: st.Out, drops: st.Drops,
				})
			}
		}
	}
	if rec == nil {
		// No member changed state, so Route() now answers for the whole run.
		o.tally = make([]uint64, len(c.Members()))
		for fi, n := range inj.counts {
			if n == 0 {
				continue
			}
			if _, owner := c.Route(inj.in.flows[fi]); owner >= 0 {
				o.tally[owner] += uint64(n)
			}
		}
	} else {
		s := rec.Spec()
		o.spec = &s
	}
	return o
}

func memberObservations(c *cluster.Cluster) []memberObs {
	var out []memberObs
	for _, m := range c.Members() {
		mo := memberObs{
			removed:    m.State() == "removed",
			adminUp:    true,
			weight:     m.Weight(),
			activePods: m.ActivePods(),
			backend:    m.Node.FlowBackendName(),
		}
		if p := m.Proxied(); p != nil {
			mo.adminUp = p.AdminUp()
		}
		out = append(out, mo)
	}
	return out
}

// check runs every correctness check that applies to the observation.
func (o observation) check() error {
	for _, f := range []func() error{o.checkConservation, o.checkStages, o.checkTally, o.checkLatency} {
		if err := f(); err != nil {
			return err
		}
	}
	if o.spec != nil {
		return checkSpec(o.members, *o.spec, o.ribRoutes)
	}
	return nil
}

// checkConservation: every injected packet reached the switch, and every
// packet the switch sprayed was either handed to a member or dropped there.
func (o observation) checkConservation() error {
	if o.sprayed != o.injected {
		return fmt.Errorf("switch counted %d packets, benchmark injected %d", o.sprayed, o.injected)
	}
	var rx uint64
	for _, n := range o.memberRx {
		rx += n
	}
	if rx+o.switchDrops != o.injected {
		return fmt.Errorf("members received %d + switch dropped %d != injected %d", rx, o.switchDrops, o.injected)
	}
	if o.tx > o.injected {
		return fmt.Errorf("pods sent %d packets, more than the %d injected", o.tx, o.injected)
	}
	return nil
}

// checkStages: every stage of every pod balances, In == Out + Drops.
func (o observation) checkStages() error {
	for _, s := range o.stages {
		if s.in != s.out+s.drops {
			return fmt.Errorf("stage %s: in %d != out %d + drops %d", s.where, s.in, s.out, s.drops)
		}
	}
	return nil
}

// checkTally: the benchmark's own count by Route() owner equals each
// member's Rx.
func (o observation) checkTally() error {
	if o.tally == nil {
		return nil
	}
	if len(o.tally) != len(o.memberRx) {
		return fmt.Errorf("tally has %d members, cluster %d", len(o.tally), len(o.memberRx))
	}
	for i := range o.tally {
		if o.tally[i] != o.memberRx[i] {
			return fmt.Errorf("member %d: Route() tally %d != Rx %d", i, o.tally[i], o.memberRx[i])
		}
	}
	return nil
}

// checkLatency: one latency sample per delivered packet, none faster than
// the Tab. 4 floor.
func (o observation) checkLatency() error {
	if o.latCount != o.tx {
		return fmt.Errorf("latency histograms hold %d samples for %d delivered packets", o.latCount, o.tx)
	}
	if o.latCount > 0 && o.latMinNS < tab4FloorNS {
		return fmt.Errorf("a packet took %d ns, below the Tab. 4 floor of %d ns", o.latMinNS, tab4FloorNS)
	}
	return nil
}

// checkSpec: the observed weight, admin state, pod count and backend of
// every member equal the spec, and the switch RIB holds exactly one route
// per serving member.
func checkSpec(members []memberObs, spec controlplane.ClusterSpec, rib int) error {
	if len(members) != len(spec.Members) {
		return fmt.Errorf("cluster has %d members, spec %d", len(members), len(spec.Members))
	}
	serving := 0
	for i, m := range members {
		want := spec.Members[i]
		if want.NormAdmin() == controlplane.AdminRemoved {
			if !m.removed {
				return fmt.Errorf("member %d: spec removes it, still present", i)
			}
			continue
		}
		if m.removed {
			return fmt.Errorf("member %d: removed, spec keeps it", i)
		}
		if up := want.NormAdmin() == controlplane.AdminUp; m.adminUp != up {
			return fmt.Errorf("member %d: admin up=%v, spec %q", i, m.adminUp, want.NormAdmin())
		}
		if m.adminUp {
			serving++
		}
		if m.weight != want.NormWeight() {
			return fmt.Errorf("member %d: weight %g, spec %g", i, m.weight, want.NormWeight())
		}
		if want.Pods > 0 && m.activePods != want.Pods {
			return fmt.Errorf("member %d: %d active pods, spec %d", i, m.activePods, want.Pods)
		}
		if want.Backend != "" && m.backend != want.Backend {
			return fmt.Errorf("member %d: backend %q, spec %q", i, m.backend, want.Backend)
		}
	}
	if rib != serving {
		return fmt.Errorf("switch RIB holds %d routes for %d serving members", rib, serving)
	}
	return nil
}
