// Cluster-scale simulation: the discrete-event counterpart of
// internal/cluster, and the simulator's one event loop. RunCluster replays a
// trace against N independent replicas of one System behind a router, with
// scripted replica faults; each replica has System.Devices engines sharing
// its pool. Requests are routed at arrival through the live router's own
// policy code (cluster.Order); when a replica is killed its queued pool and
// in-flight batches fail over to the survivors, and when no replica is alive
// new work is shed instead of silently dropped. Every generated request
// therefore reaches exactly one terminal state — scheduled, expired or shed
// — which is the zero-lost invariant the live cluster promises and the
// million-request test here proves at a scale the HTTP path cannot.
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tcb/internal/cluster"
	"tcb/internal/sched"
)

// Fault scripts one replica outage: the replica dies at At (its queue and
// in-flight batches fail over to the survivors) and, if RecoverAt > At,
// comes back empty at RecoverAt. RecoverAt 0 means it stays down.
type Fault struct {
	Replica   int
	At        float64
	RecoverAt float64
}

// ClusterSystem describes a replicated serving deployment under test.
// Template configures each replica, Devices included.
type ClusterSystem struct {
	Template System
	Replicas int
	Route    cluster.Policy
	Faults   []Fault
}

// simDevice is one engine of a replica. It runs at most one batch at a
// time; inflight holds the requests of the running batch until freeAt, when
// they complete and count as scheduled.
type simDevice struct {
	inflight []*sched.Request
	freeAt   float64
}

// simReplica is one replica's private serving state: a pool its devices
// share.
type simReplica struct {
	pool    []*sched.Request
	devices []simDevice
	down    bool
	// fw is the replica's WFQ state under Template.Fair (nil otherwise).
	// Each replica clocks its own fairness: a request failing over to a
	// survivor is re-stamped there, and a recovered replica starts fresh.
	fw *simWFQ
}

// pendingTokens is the replica's load for least-loaded routing: queued plus
// in-flight tokens.
func (r *simReplica) pendingTokens() int64 {
	n := sched.TotalLen(r.pool)
	for _, d := range r.devices {
		n += sched.TotalLen(d.inflight)
	}
	return int64(n)
}

// idle reports whether one of the replica's devices is free to decide.
func (r *simReplica) idle() bool {
	for _, d := range r.devices {
		if d.inflight == nil {
			return true
		}
	}
	return false
}

// RunCluster simulates the replicated system over the trace and returns its
// metrics. Scheduled requests are counted when their batch completes, not
// when it is dispatched — a replica killed mid-batch re-routes the batch's
// requests instead of crediting them.
func RunCluster(cs ClusterSystem, trace []*sched.Request) (*Metrics, error) {
	sys := cs.Template
	if cs.Replicas <= 0 {
		return nil, fmt.Errorf("sim: cluster needs >=1 replica, got %d", cs.Replicas)
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	for _, f := range cs.Faults {
		if f.Replica < 0 || f.Replica >= cs.Replicas {
			return nil, fmt.Errorf("sim: fault targets replica %d of %d", f.Replica, cs.Replicas)
		}
		if f.RecoverAt != 0 && f.RecoverAt <= f.At {
			return nil, fmt.Errorf("sim: fault recovery %g not after kill %g", f.RecoverAt, f.At)
		}
	}

	reqs := append([]*sched.Request(nil), trace...)
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Arrival < reqs[b].Arrival })

	// Flatten faults into a time-ordered down/up event list.
	type faultEvent struct {
		at   float64
		rep  int
		down bool
	}
	var fevs []faultEvent
	for _, f := range cs.Faults {
		fevs = append(fevs, faultEvent{f.At, f.Replica, true})
		if f.RecoverAt > f.At {
			fevs = append(fevs, faultEvent{f.RecoverAt, f.Replica, false})
		}
	}
	sort.SliceStable(fevs, func(a, b int) bool { return fevs[a].at < fevs[b].at })

	m := &Metrics{
		System:     sys.Name,
		Generated:  len(reqs),
		Replicas:   cs.Replicas,
		PerReplica: make([]int, cs.Replicas),
	}
	for _, r := range reqs {
		m.tenant(r).Generated++
	}
	reps := make([]*simReplica, cs.Replicas)
	for i := range reps {
		reps[i] = &simReplica{devices: make([]simDevice, max(sys.Devices, 1)), fw: newSimWFQ(sys)}
	}

	now := 0.0
	next := 0 // next arrival index
	nf := 0   // next fault event index
	rr := 0   // round-robin cursor
	var live []*simReplica

	// assign gives the request a terminal owner: the live replica the router
	// prefers, or the shed/expired bucket when nobody can take it.
	assign := func(req *sched.Request, t float64, failover bool) {
		live = live[:0]
		for _, r := range reps {
			if !r.down {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			if req.Deadline < t {
				m.Expired++
				m.tenant(req).Expired++
			} else {
				m.Shed++
				m.tenant(req).Shed++
			}
			return
		}
		cluster.Order(cs.Route, live, req.Len, sys.L, rr, (*simReplica).pendingTokens)
		rr++
		live[0].pool = append(live[0].pool, req)
		live[0].fw.admit(req)
		if failover {
			m.Failovers++
		}
	}

	for {
		// Fault events due now. Kills run before completions at the same
		// instant: a batch finishing exactly when its replica dies is
		// conservatively treated as not finished and fails over.
		for nf < len(fevs) && fevs[nf].at <= now {
			e := fevs[nf]
			nf++
			r := reps[e.rep]
			if r.down == e.down {
				continue // a second kill, or a recovery of a live replica
			}
			r.down = e.down
			r.fw = newSimWFQ(sys) // a dead clock is discarded with the pool
			if !e.down {
				continue // back, empty: the kill already moved its work
			}
			victims := r.pool
			for d := range r.devices {
				victims = append(victims, r.devices[d].inflight...)
				r.devices[d] = simDevice{}
			}
			r.pool = nil
			for _, v := range victims {
				assign(v, now, true)
			}
		}

		// Arrivals due now, routed on the current live set.
		for next < len(reqs) && reqs[next].Arrival <= now {
			assign(reqs[next], now, false)
			next++
		}

		// Completions due now: the batch's requests count as scheduled.
		for i, r := range reps {
			for d := range r.devices {
				dev := &r.devices[d]
				if dev.inflight == nil || dev.freeAt > now {
					continue
				}
				for _, q := range dev.inflight {
					m.Scheduled++
					m.Utility += q.Utility()
					m.Latency.Add(dev.freeAt - q.Arrival)
					m.PerReplica[i]++
					tm := m.tenant(q)
					tm.Scheduled++
					tm.Utility += q.Utility()
				}
				dev.inflight = nil
			}
		}

		// Deadline sweep per pool. A lone replica's pool is read only by
		// its own devices' decisions, so while they are all busy its sweep
		// waits for the next decision: same outcome, without an O(pool)
		// pass per arrival at saturation.
		for _, r := range reps {
			if len(r.pool) == 0 || (len(reps) == 1 && !r.idle()) {
				continue
			}
			alive, expired, _ := sched.Expire(r.pool, now)
			m.Expired += len(expired)
			for _, q := range expired {
				m.tenant(q).Expired++
			}
			r.fw.expire(expired)
			r.pool = alive
		}

		// Dispatch: every idle device of a live replica decides now, in
		// device order, while its replica has pending work.
		refusalAdvance := math.Inf(1)
		for _, r := range reps {
			for d := range r.devices {
				dev := &r.devices[d]
				if r.down || len(r.pool) == 0 {
					break
				}
				if dev.inflight != nil {
					continue
				}
				m.Backlog.Add(float64(len(r.pool)))
				cands := r.fw.candidates(r.pool)
				t0 := time.Now()
				dec := sys.Scheduler.Schedule(now, cands, sys.B, sys.L)
				m.SchedulerWall += time.Since(t0)
				m.SchedulerRuns++
				chosen := dec.Chosen()
				if len(chosen) == 0 {
					// Everything pending was refused (longer than L, or longer
					// than the slot under a slotted policy) — and would be
					// again by the next idle device: let it expire at the
					// earliest deadline instead of livelocking.
					for _, q := range r.pool {
						if q.Deadline+1e-9 < refusalAdvance {
							refusalAdvance = q.Deadline + 1e-9
						}
					}
					break
				}
				elapsed, used, padded, launches := executeDecision(sys, dec)
				m.Batches += launches
				m.BusySeconds += elapsed
				m.UsedTokens += int64(used)
				m.PaddedTokens += int64(padded)
				chosenSet := make(map[int64]bool, len(chosen))
				for _, q := range chosen {
					chosenSet[q.ID] = true
				}
				var keep []*sched.Request
				for _, q := range r.pool {
					if !chosenSet[q.ID] {
						keep = append(keep, q)
					}
				}
				r.pool = keep
				r.fw.dispatched(chosen)
				dev.inflight = chosen
				dev.freeAt = now + elapsed
			}
		}

		// Advance to the next event. Every candidate is strictly after
		// now: arrivals/faults at <= now were consumed above, fresh
		// batches have positive duration, and surviving pool deadlines
		// are >= now (the sweep removed the rest). Nothing left means the
		// trace is drained (remaining fault events move no work).
		tnext := refusalAdvance
		if next < len(reqs) && reqs[next].Arrival < tnext {
			tnext = reqs[next].Arrival
		}
		busy := false
		for _, r := range reps {
			for _, dev := range r.devices {
				if dev.inflight != nil {
					busy = true
					tnext = min(tnext, dev.freeAt)
				}
			}
		}
		if next >= len(reqs) && !busy && math.IsInf(refusalAdvance, 1) {
			break
		}
		if nf < len(fevs) && fevs[nf].at < tnext {
			tnext = fevs[nf].at
		}
		if math.IsInf(tnext, 1) {
			break
		}
		now = tnext
	}

	m.SimSeconds = now
	m.Lost = m.Generated - m.Scheduled - m.Expired - m.Shed
	return m, nil
}
