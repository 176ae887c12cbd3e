package sim

import (
	"reflect"
	"testing"

	"tcb/internal/batch"
	"tcb/internal/cluster"
	"tcb/internal/fair"
	"tcb/internal/sched"
	"tcb/internal/workload"
)

// mixTrace generates the adversarial multi-tenant workload: nGood paper
// streams plus a flooder at floodFactor × the base rate.
func mixTrace(t *testing.T, baseRate, duration float64, seed uint64, nGood int, floodFactor float64) []*sched.Request {
	t.Helper()
	reqs, err := workload.GenerateMix(workload.AdversarialMix(baseRate, duration, seed, nGood, floodFactor))
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// untag returns a copy of the trace with the tenant labels stripped.
func untag(reqs []*sched.Request) []*sched.Request {
	out := make([]*sched.Request, len(reqs))
	for i, r := range reqs {
		cp := *r
		cp.Tenant = ""
		out[i] = &cp
	}
	return out
}

// TestFairOffBitwiseIdentical pins the escape hatch: with Fair off, tenant
// tags are pure accounting — a tagged trace must schedule exactly like the
// same trace untagged, down to every batch and latency sample.
func TestFairOffBitwiseIdentical(t *testing.T) {
	tagged := mixTrace(t, 40, 3, 11, 2, 4)
	sys := system("tcb", sched.NewDAS(), batch.Concat)
	if sys.Fair {
		t.Fatal("fair must default off")
	}
	m1, err := Run(sys, tagged)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(sys, untag(tagged))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Scheduled != m2.Scheduled || m1.Expired != m2.Expired ||
		m1.Utility != m2.Utility || m1.SimSeconds != m2.SimSeconds ||
		m1.Batches != m2.Batches || m1.BusySeconds != m2.BusySeconds ||
		m1.UsedTokens != m2.UsedTokens || m1.PaddedTokens != m2.PaddedTokens {
		t.Fatalf("tags changed fair-off scheduling:\n%+v\n%+v", m1, m2)
	}
	if !reflect.DeepEqual(m1.Latency, m2.Latency) || !reflect.DeepEqual(m1.Backlog, m2.Backlog) {
		t.Fatal("tags changed fair-off latency/backlog samples")
	}
	// Tallies still exist in both runs — untagged folds into one tenant.
	if len(m1.Tenants) != 3 {
		t.Fatalf("tagged run tenants = %d, want 3", len(m1.Tenants))
	}
	if len(m2.Tenants) != 1 || m2.Tenants["default"] == nil {
		t.Fatalf("untagged run tenants = %v, want default only", m2.Tenants)
	}
}

// TestFairTenantConservation: per-tenant tallies partition the run's
// terminal accounting exactly, and Jain is sane, with fairness on.
func TestFairTenantConservation(t *testing.T) {
	reqs := mixTrace(t, 60, 3, 5, 3, 8)
	sys := system("tcb", sched.NewDAS(), batch.Concat)
	sys.Fair = true
	m, err := Run(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	gen, schd, exp := 0, 0, 0
	for name, tm := range m.Tenants {
		if tm.Generated != tm.Scheduled+tm.Expired {
			t.Fatalf("tenant %s leaked requests: %+v", name, tm)
		}
		gen += tm.Generated
		schd += tm.Scheduled
		exp += tm.Expired
	}
	if gen != m.Generated || schd != m.Scheduled || exp != m.Expired {
		t.Fatalf("tenant tallies don't partition totals: %d/%d/%d vs %d/%d/%d",
			gen, schd, exp, m.Generated, m.Scheduled, m.Expired)
	}
	if j := m.JainGoodput(); j <= 0 || j > 1 {
		t.Fatalf("Jain index %g out of range", j)
	}
}

// TestWFQWindowBeatsFloodOnJain: under an adversarial flood the WFQ
// window must yield a materially fairer goodput split than the raw pool.
func TestWFQWindowBeatsFloodOnJain(t *testing.T) {
	reqs := mixTrace(t, 60, 4, 9, 3, 8)
	base := system("tcb", sched.NewDAS(), batch.Concat)

	unfair, err := Run(base, reqs)
	if err != nil {
		t.Fatal(err)
	}
	fairSys := base
	fairSys.Fair = true
	fair, err := Run(fairSys, reqs)
	if err != nil {
		t.Fatal(err)
	}

	goodShare := func(m *Metrics) float64 {
		good, gen := 0, 0
		for name, tm := range m.Tenants {
			if name == "flooder" {
				continue
			}
			good += tm.Scheduled
			gen += tm.Generated
		}
		if gen == 0 {
			t.Fatal("no good-tenant traffic")
		}
		return float64(good) / float64(gen)
	}
	if gf, gu := goodShare(fair), goodShare(unfair); gf < gu {
		t.Fatalf("fair served good tenants worse than unfair: %.3f < %.3f", gf, gu)
	}
	if jf, ju := fair.JainGoodput(), unfair.JainGoodput(); jf < ju {
		t.Fatalf("fair Jain %.3f below unfair %.3f", jf, ju)
	}
}

// TestMillionRequestNoStarvation is the acceptance-scale fairness run:
// ~10^6 requests where a flooder submits at 10× each well-behaved tenant's
// rate, total demand well past capacity. With WFQ on, every good tenant
// must keep nearly its full goodput (its demand is under its fair share)
// and the overload must land on the flooder.
func TestMillionRequestNoStarvation(t *testing.T) {
	const baseRate = 100.0 // 3 good + 10× flooder = 1300 req/s offered
	duration := 1_000_000.0 / (13 * baseRate)
	reqs := mixTrace(t, baseRate, duration, 7, 3, 10)
	if len(reqs) < 900_000 {
		t.Fatalf("trace too small for a million-request run: %d", len(reqs))
	}
	sys := system("tcb", sched.NewDAS(), batch.Concat)
	sys.Fair = true
	m, err := Run(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	goodput := map[string]int{}
	for name, tm := range m.Tenants {
		if tm.Generated != tm.Scheduled+tm.Expired {
			t.Fatalf("tenant %s leaked requests: %+v", name, tm)
		}
		if name == "flooder" {
			if tm.Scheduled >= tm.Generated {
				t.Fatal("flooder fully served — the run never overloaded")
			}
			continue
		}
		if frac := float64(tm.Scheduled) / float64(tm.Generated); frac < 0.75 {
			t.Fatalf("good tenant %s starved: %.3f of %d served", name, frac, tm.Generated)
		}
		goodput[name] = tm.Scheduled
	}
	if len(goodput) != 3 {
		t.Fatalf("good tenants = %d, want 3", len(goodput))
	}
	if j := fairJain(goodput); j < 0.99 {
		t.Fatalf("good tenants served unevenly: Jain %.4f", j)
	}
}

// fairJain mirrors fair.JainIndexMap for the test without importing the
// package under a clashing name.
func fairJain(counts map[string]int) float64 {
	var sum, sq float64
	for _, c := range counts {
		x := float64(c)
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(counts)) * sq)
}

// TestClusterFairTenantAccounting: cluster runs tally tenants through
// routing, faults and failover — conservation must hold per tenant even
// when requests bounce between replicas.
func TestClusterFairTenantAccounting(t *testing.T) {
	reqs := mixTrace(t, 80, 3, 13, 2, 6)
	sys := system("tcb", sched.NewDAS(), batch.Concat)
	sys.Fair = true
	m, err := RunCluster(ClusterSystem{
		Template: sys,
		Replicas: 2,
		Route:    cluster.LeastLoaded,
		Faults:   []Fault{{Replica: 1, At: 1.0, RecoverAt: 2.0}},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lost != 0 {
		t.Fatalf("lost %d requests", m.Lost)
	}
	gen, schd, exp, shed := 0, 0, 0, 0
	for name, tm := range m.Tenants {
		if tm.Generated != tm.Scheduled+tm.Expired+tm.Shed {
			t.Fatalf("tenant %s leaked requests: %+v", name, tm)
		}
		gen += tm.Generated
		schd += tm.Scheduled
		exp += tm.Expired
		shed += tm.Shed
	}
	if gen != m.Generated || schd != m.Scheduled || exp != m.Expired || shed != m.Shed {
		t.Fatalf("tenant tallies don't partition cluster totals: %+v", m.Tenants)
	}
	if m.Failovers == 0 {
		t.Fatal("kill with queued work must fail over")
	}
}

// JainGoodput is Jain's fairness index over per-tenant scheduled counts
// (1 = perfectly even split; 1/n = one tenant taking everything; 1 for
// untagged or empty runs).
func (m *Metrics) JainGoodput() float64 {
	if len(m.Tenants) == 0 {
		return 1
	}
	goodput := make(map[string]int, len(m.Tenants))
	for name, tm := range m.Tenants {
		goodput[name] = tm.Scheduled
	}
	return fair.JainIndexMap(goodput)
}
