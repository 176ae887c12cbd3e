// Package sim is the discrete-event serving simulator behind the paper's
// throughput and utility experiments (Figs. 9–12, 15–16). It replays a
// request trace against a (scheduler, batching scheme) pair: at every
// engine slot the scheduler selects requests from the pending pool, the
// batcher lays them out under its scheme, and the cost model charges the
// batch its simulated execution time, which advances the clock. Requests
// count toward utility and throughput when they are scheduled by their
// deadline (Eq. 9/12); requests whose deadlines pass while queued expire.
//
// The mechanism that produces the paper's saturation behaviour falls out
// naturally: schemes with more padding redundancy take longer per batch,
// serve fewer requests per second, grow their queues, and lose utility to
// deadline expiry at lower arrival rates.
//
// There is one event loop, RunCluster's (cluster.go); Run is its
// one-replica case.
package sim

import (
	"fmt"
	"time"

	"tcb/internal/batch"
	"tcb/internal/cost"
	"tcb/internal/sched"
	"tcb/internal/stats"
)

// System describes one serving configuration under test.
type System struct {
	Name      string
	Scheduler sched.Scheduler
	Scheme    batch.Scheme
	B         int // batch rows (scheduler capacity per slot)
	L         int // row capacity in tokens
	Cost      cost.Params
	// EarlyCleaning enables §4.2.2's optimization for SlottedConcat: the
	// next batch's data loading overlaps the current batch's decode tail
	// once the first slot frees, reducing effective batch time by
	// Cost.OverlapSavings. Ignored for other schemes (they cannot free
	// per-request memory mid-batch).
	EarlyCleaning bool
	// Devices is the number of identical accelerators sharing one replica's
	// pool; every idle device takes a scheduler decision at each event. 0
	// means 1. This models the multi-GPU scale-out a production deployment
	// of TCB would add (the paper evaluates a single V100).
	Devices int
	// Fair enables the weighted-fair candidate window: pending requests
	// are offered to the (tenant-blind) scheduler in WFQ virtual-finish
	// order, truncated to fair.Window(B), so one tenant's flood cannot
	// monopolize the batch. Off preserves the original pool byte-for-byte.
	Fair bool
}

// Validate reports configuration problems.
func (s System) Validate() error {
	if s.Scheduler == nil {
		return fmt.Errorf("sim: %s has no scheduler", s.Name)
	}
	if s.B <= 0 || s.L <= 0 {
		return fmt.Errorf("sim: %s has B=%d L=%d", s.Name, s.B, s.L)
	}
	return s.Cost.Validate()
}

// Metrics aggregates one simulation run.
type Metrics struct {
	System       string
	Generated    int     // requests in the trace
	Scheduled    int     // requests scheduled by their deadline
	Expired      int     // requests that died in the queue
	Utility      float64 // Σ 1/lₙ over scheduled requests (Eq. 9)
	SimSeconds   float64 // simulated wall clock at the end of the run
	Batches      int     // engine launches (sub-batches included)
	BusySeconds  float64 // simulated seconds the engine computed
	UsedTokens   int64
	PaddedTokens int64
	// SchedulerWall accumulates *real* wall-clock spent inside
	// Scheduler.Schedule, for the Fig. 16 overhead experiment.
	SchedulerWall time.Duration
	SchedulerRuns int
	// Latency of scheduled requests (completion − arrival), simulated.
	Latency stats.Sample
	// Backlog samples the pending-queue depth at every scheduling
	// decision; its growth past saturation is the mechanism behind the
	// paper's flattening throughput curves.
	Backlog stats.Running
	// Tenants tallies terminal outcomes per tenant (untagged requests fold
	// into the default tenant). Populated whether or not System.Fair is on,
	// so fairness can be measured with and without enforcement.
	Tenants map[string]*TenantMetrics

	// The cluster's terminal accounting. The invariant the live cluster
	// promises holds by construction and is re-derived at the end of every
	// run: Generated == Scheduled + Expired + Shed, i.e. Lost == 0.
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
	// means the model dropped a request on the floor.
	Lost int
	// PerReplica is the number of requests each replica completed.
	PerReplica []int
}

// Throughput returns scheduled responses per simulated second.
func (m *Metrics) Throughput() float64 {
	if m.SimSeconds == 0 {
		return 0
	}
	return float64(m.Scheduled) / m.SimSeconds
}

// Run simulates sys over the trace (sorted by arrival) and returns metrics:
// a cluster of one fault-free replica.
func Run(sys System, trace []*sched.Request) (*Metrics, error) {
	return RunCluster(ClusterSystem{Template: sys, Replicas: 1}, trace)
}

// executeDecision lays the decision out under the system's scheme and
// returns (simulated seconds, used tokens, padded tokens, launches).
func executeDecision(sys System, dec sched.Decision) (secs float64, used, padded, launches int) {
	items := make([]batch.Item, 0, len(dec.Chosen()))
	for _, r := range dec.Chosen() {
		items = append(items, batch.Item{ID: r.ID, Len: r.Len})
	}
	switch sys.Scheme {
	case batch.Naive:
		// The scheduled set is processed in consecutive naive launches of
		// at most B single-request rows each.
		rest := items
		for len(rest) > 0 {
			var b *batch.Batch
			b, rest = batch.PackNaive(rest, sys.B, sys.L)
			if b.NumItems() == 0 {
				break // only unservable leftovers
			}
			secs += sys.Cost.BatchTime(b)
			used += b.UsedTokens()
			padded += b.PaddedTokens()
			launches++
		}
	case batch.Turbo:
		// Express the launch overhead in padded-token equivalents so the DP
		// trades padding against launches consistently.
		var overhead float64
		if sys.Cost.PerTokenSeconds > 0 {
			overhead = sys.Cost.PerBatchSeconds / sys.Cost.PerTokenSeconds
		}
		plan, _ := batch.PackTurbo(items, batch.TurboParams{
			MaxRows: sys.B, MaxLen: sys.L, Overhead: overhead,
		})
		for _, b := range plan {
			secs += sys.Cost.BatchTime(b)
			used += b.UsedTokens()
			padded += b.PaddedTokens()
			launches++
		}
	case batch.SlottedConcat:
		b := decisionToBatch(dec, sys.L, dec.SlotSize)
		secs = sys.Cost.BatchTime(b)
		if sys.EarlyCleaning {
			secs -= sys.Cost.OverlapSavings(b)
		}
		used = b.UsedTokens()
		padded = b.SlottedTokens() - b.UsedTokens()
		launches = 1
	default: // batch.Concat
		b := decisionToBatch(dec, sys.L, 0)
		secs = sys.Cost.BatchTime(b)
		used = b.UsedTokens()
		padded = b.PaddedTokens()
		launches = 1
	}
	return secs, used, padded, launches
}

// decisionToBatch converts the scheduler's per-row assignment directly
// into a batch layout (the scheduler already respected row capacities).
func decisionToBatch(dec sched.Decision, L, slotSize int) *batch.Batch {
	scheme := batch.Concat
	if slotSize > 0 {
		scheme = batch.SlottedConcat
	}
	b := &batch.Batch{Scheme: scheme, SlotSize: slotSize}
	for _, row := range dec.Rows {
		if len(row) == 0 {
			continue
		}
		r := batch.Row{PadTo: L}
		for _, req := range row {
			r.Items = append(r.Items, batch.Item{ID: req.ID, Len: req.Len})
		}
		b.Rows = append(b.Rows, r)
	}
	return b
}
