// Cluster-scale simulation: the discrete-event counterpart of
// internal/cluster. RunCluster replays a trace against N independent
// replicas of one System behind a router, with scripted replica faults.
// Requests are routed at arrival (round-robin, least-loaded or
// length-affinity, mirroring the live cluster's policies); when a replica
// is killed its queued pool and in-flight batch fail over to the
// survivors, and when no replica is alive new work is shed instead of
// silently dropped. Every generated request therefore reaches exactly one
// terminal state — scheduled, expired or shed — which is the zero-lost
// invariant the live cluster promises and the million-request test here
// proves at a scale the HTTP path cannot.
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tcb/internal/sched"
)

// Route selects how arrivals are spread over live replicas.
type Route int

const (
	// RouteRoundRobin cycles arrivals over the live replicas.
	RouteRoundRobin Route = iota
	// RouteLeastLoaded sends each arrival to the live replica with the
	// fewest pending tokens (queued + in-flight).
	RouteLeastLoaded
	// RouteLengthAffinity bands requests by length so replicas see
	// homogeneous rows: short requests go to low replica indexes, long
	// ones to high indexes (less padding under concat layouts).
	RouteLengthAffinity
)

// String names the route for figure labels.
func (r Route) String() string {
	switch r {
	case RouteLeastLoaded:
		return "least-loaded"
	case RouteLengthAffinity:
		return "length-affinity"
	default:
		return "round-robin"
	}
}

// Fault scripts one replica outage: the replica dies at At (its queue and
// in-flight batch fail over to the survivors) and, if RecoverAt > At,
// comes back empty at RecoverAt. RecoverAt 0 means it stays down.
type Fault struct {
	Replica   int
	At        float64
	RecoverAt float64
}

// ClusterSystem describes a replicated serving deployment under test.
// Template configures each replica (its Devices field is ignored — every
// replica is one engine; use multiple replicas instead).
type ClusterSystem struct {
	Template System
	Replicas int
	Route    Route
	Faults   []Fault
}

// ClusterMetrics extends the single-system metrics with the cluster's
// terminal accounting. The invariant the live cluster promises holds here
// by construction and is re-derived at the end of every run:
// Generated == Scheduled + Expired + Shed, i.e. Lost == 0.
type ClusterMetrics struct {
	Metrics
	Replicas int
	// Shed counts requests refused because no live replica existed at
	// their arrival (or at the failover moment) — the simulation analogue
	// of the serve layer's degrade-to-shedding when every replica is
	// ejected.
	Shed int
	// Failovers counts requests re-routed off a killed replica onto a
	// survivor (a request re-routed twice counts twice).
	Failovers int
	// Lost is Generated − Scheduled − Expired − Shed. Anything but zero
	// means the cluster model dropped a request on the floor.
	Lost int
	// PerReplica is the number of requests each replica completed.
	PerReplica []int
}

// simReplica is one replica's private serving state. A replica runs at
// most one batch at a time; inflight holds the requests of the running
// batch until freeAt, when they complete and count as scheduled.
type simReplica struct {
	pool     []*sched.Request
	inflight []*sched.Request
	freeAt   float64
	down     bool
	// fw is the replica's WFQ state under Template.Fair (nil otherwise).
	// Each replica clocks its own fairness: a request failing over to a
	// survivor is re-stamped there, and a recovered replica starts fresh.
	fw *simWFQ
}

// pendingTokens is the replica's load for least-loaded routing.
func (r *simReplica) pendingTokens() int {
	return sched.TotalLen(r.pool) + sched.TotalLen(r.inflight)
}

// RunCluster simulates the replicated system over the trace and returns
// cluster metrics. Unlike Run, scheduled requests are counted when their
// batch completes, not when it is dispatched — a replica killed mid-batch
// re-routes the batch's requests instead of crediting them.
func RunCluster(cs ClusterSystem, trace []*sched.Request) (*ClusterMetrics, error) {
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

	m := &ClusterMetrics{
		Metrics:    Metrics{System: sys.Name, Generated: len(reqs)},
		Replicas:   cs.Replicas,
		PerReplica: make([]int, cs.Replicas),
	}
	for _, r := range reqs {
		m.tenant(r).Generated++
	}
	reps := make([]*simReplica, cs.Replicas)
	for i := range reps {
		reps[i] = &simReplica{fw: newSimWFQ(sys)}
	}

	now := 0.0
	next := 0 // next arrival index
	nf := 0   // next fault event index
	rr := 0   // round-robin cursor

	live := func() []int {
		var out []int
		for i, r := range reps {
			if !r.down {
				out = append(out, i)
			}
		}
		return out
	}
	route := func(req *sched.Request) int {
		cand := live()
		if len(cand) == 0 {
			return -1
		}
		switch cs.Route {
		case RouteLeastLoaded:
			best := cand[0]
			for _, i := range cand[1:] {
				if reps[i].pendingTokens() < reps[best].pendingTokens() {
					best = i
				}
			}
			return best
		case RouteLengthAffinity:
			pref := req.Len * len(cand) / (sys.L + 1)
			if pref >= len(cand) {
				pref = len(cand) - 1
			}
			return cand[pref]
		default:
			rr++
			return cand[rr%len(cand)]
		}
	}
	// assign gives the request a terminal owner: a live replica's pool, or
	// the shed/expired bucket when nobody can take it.
	assign := func(req *sched.Request, t float64, failover bool) {
		i := route(req)
		if i < 0 {
			if req.Deadline < t {
				m.Expired++
				m.tenant(req).Expired++
			} else {
				m.Shed++
				m.tenant(req).Shed++
			}
			return
		}
		reps[i].pool = append(reps[i].pool, req)
		reps[i].fw.admit(req)
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
			if e.down {
				if r.down {
					continue
				}
				r.down = true
				victims := append(r.pool, r.inflight...)
				r.pool, r.inflight = nil, nil
				r.fw = newSimWFQ(sys) // dead clock discarded with the pool
				r.freeAt = now
				for _, v := range victims {
					assign(v, now, true)
				}
			} else {
				r.down = false
				r.pool, r.inflight = nil, nil
				r.fw = newSimWFQ(sys)
				r.freeAt = now
			}
		}

		// Arrivals due now, routed on the current live set.
		for next < len(reqs) && reqs[next].Arrival <= now {
			assign(reqs[next], now, false)
			next++
		}

		// Completions due now: the batch's requests count as scheduled.
		for i, r := range reps {
			if r.down || r.inflight == nil || r.freeAt > now {
				continue
			}
			for _, q := range r.inflight {
				m.Scheduled++
				m.Utility += q.Utility()
				m.Latency.Add(r.freeAt - q.Arrival)
				m.PerReplica[i]++
				tm := m.tenant(q)
				tm.Scheduled++
				tm.Utility += q.Utility()
			}
			r.inflight = nil
		}

		// Deadline sweep per pool.
		for _, r := range reps {
			if r.down || len(r.pool) == 0 {
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

		// Dispatch: every idle live replica with pending work decides now.
		refusalAdvance := math.Inf(1)
		for _, r := range reps {
			if r.down || r.inflight != nil || len(r.pool) == 0 {
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
				// than the slot under a slotted policy): let it expire at
				// the earliest deadline instead of livelocking.
				for _, q := range r.pool {
					if q.Deadline+1e-9 < refusalAdvance {
						refusalAdvance = q.Deadline + 1e-9
					}
				}
				continue
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
			r.inflight = chosen
			r.freeAt = now + elapsed
		}

		// Fully drained (remaining fault events move no work): done.
		if next >= len(reqs) {
			idle := true
			for _, r := range reps {
				if r.inflight != nil || (!r.down && len(r.pool) > 0) {
					idle = false
					break
				}
			}
			if idle {
				break
			}
		}

		// Advance to the next event. Every candidate is strictly after
		// now: arrivals/faults at <= now were consumed above, fresh
		// batches have positive duration, and surviving pool deadlines
		// are >= now (the sweep removed the rest).
		tnext := refusalAdvance
		if next < len(reqs) && reqs[next].Arrival < tnext {
			tnext = reqs[next].Arrival
		}
		if nf < len(fevs) && fevs[nf].at < tnext {
			tnext = fevs[nf].at
		}
		for _, r := range reps {
			if !r.down && r.inflight != nil && r.freeAt < tnext {
				tnext = r.freeAt
			}
		}
		if math.IsInf(tnext, 1) {
			break
		}
		now = tnext
	}

	m.SimSeconds = now
	m.Lost = m.Generated - m.Metrics.Scheduled - m.Metrics.Expired - m.Shed
	return m, nil
}
