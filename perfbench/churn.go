package main

import (
	"fmt"

	"albatross/internal/cluster"
	"albatross/internal/controlplane"
	"albatross/internal/sim"
)

// churnUpdate is one timed desired-state change.
type churnUpdate struct {
	at   sim.Time
	what string
	spec controlplane.ClusterSpec
}

// canaryWeights is the canary's weight shift, back to its start each cycle.
var canaryWeights = []float64{0.5, 1.0}

func initialSpec(w workloadSpec) controlplane.ClusterSpec {
	s := controlplane.ClusterSpec{Members: make([]controlplane.MemberSpec, w.nodes)}
	for i := range s.Members {
		s.Members[i] = controlplane.MemberSpec{Weight: 1, Pods: 1, Admin: controlplane.AdminUp}
	}
	return s
}

// churnSchedule is the control-churn update sequence: a canary member is
// added at 10% weight, then every cycle shifts its weight 50% → 100% → 10%,
// drains and restores one base member (rolling over the fleet), scales one
// member's pods up and back down, and rolls the flow backend to othello and
// back. Every change is make-before-break, so no packet is lost. Updates are
// spaced so each converges (one reconcile step per 5 ms tick) before the
// next, and the last one converges before the timed phase ends.
func churnSchedule(w workloadSpec) []churnUpdate {
	spec := initialSpec(w)
	at := w.warmEnd()
	end := at.Add(w.timed)
	var out []churnUpdate
	push := func(what string) bool {
		if at.Add(w.updateEvery) > end {
			return false
		}
		out = append(out, churnUpdate{at: at, what: what, spec: spec.Clone()})
		at = at.Add(w.updateEvery)
		return true
	}
	spec.Members = append(spec.Members, controlplane.MemberSpec{Weight: 0.1, Pods: 1, Admin: controlplane.AdminUp})
	canary := len(spec.Members) - 1
	if !push("canary-add") {
		return out
	}
	for cycle := 0; ; cycle++ {
		for _, wt := range canaryWeights {
			spec.Members[canary].Weight = wt
			if !push(fmt.Sprintf("canary-weight %g", wt)) {
				return out
			}
		}
		d := cycle % w.nodes
		spec.Members[d].Admin = controlplane.AdminDrained
		if !push(fmt.Sprintf("drain %d", d)) {
			return out
		}
		spec.Members[d].Admin = controlplane.AdminUp
		if !push(fmt.Sprintf("restore %d", d)) {
			return out
		}
		p := cycle % len(spec.Members)
		spec.Members[p].Pods = 2
		if !push(fmt.Sprintf("scale-up %d", p)) {
			return out
		}
		spec.Members[p].Pods = 1
		if !push(fmt.Sprintf("scale-down %d", p)) {
			return out
		}
		for _, b := range []string{"othello", w.backend} {
			for i := range spec.Members {
				spec.Members[i].Backend = b
			}
			if !push("backend " + b) {
				return out
			}
		}
		spec.Members[canary].Weight = 0.1
		if !push("canary-weight 0.1") {
			return out
		}
	}
}

// churnDriver issues the schedule between RunUntil slices and counts the
// updates the reconciler did not converge to before the next one.
type churnDriver struct {
	rec     *controlplane.Reconciler
	c       *cluster.Cluster
	updates []churnUpdate
	next    int
	stale   int
	// tally is polled at every update: an update rolls each member's
	// backend at most once.
	tally *lookupTally
}

// runUntil advances the cluster to t, setting each update due before t at
// its own virtual time. Without updates it is one Cluster.RunUntil.
func (d *churnDriver) runUntil(t sim.Time) error {
	for d.next < len(d.updates) && d.updates[d.next].at < t {
		u := d.updates[d.next]
		d.c.RunUntil(u.at)
		d.tally.poll(d.c)
		if d.next > 0 && !d.converged(d.updates[d.next-1].spec) {
			d.stale++
		}
		if err := d.rec.SetSpec(u.spec); err != nil {
			return fmt.Errorf("control-churn: %s: %w", u.what, err)
		}
		d.next++
	}
	d.c.RunUntil(t)
	return nil
}

// meanConvergeMS is the mean virtual time from an update to the last
// reconcile step it caused, over the updates that caused any.
func (d *churnDriver) meanConvergeMS() float64 {
	steps := d.rec.Steps()
	var sum sim.Duration
	var n int
	for i := 0; i < d.next; i++ {
		from := d.updates[i].at
		until := sim.TimeMax
		if i+1 < d.next {
			until = d.updates[i+1].at
		}
		var last sim.Time = -1
		for _, s := range steps {
			if s.At >= from && s.At < until {
				last = s.At
			}
		}
		if last >= 0 {
			sum += last.Sub(from)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum.Seconds() * 1e3 / float64(n)
}

// finish checks the last update and returns (issued, not converged).
func (d *churnDriver) finish() (int, int) {
	if d.next > 0 && !d.converged(d.updates[d.next-1].spec) {
		d.stale++
	}
	return d.next, d.stale
}

func (d *churnDriver) converged(spec controlplane.ClusterSpec) bool {
	return d.rec.Converged() && checkSpec(memberObservations(d.c), spec, ribRoutes(d.c)) == nil
}

// ribRoutes is the switch RIB size (-1 without the proxied fabric).
func ribRoutes(c *cluster.Cluster) int {
	if sw := c.SwitchModel(); sw != nil {
		return sw.RIB().Len()
	}
	return -1
}
