package sim

import (
	"testing"

	"tcb/internal/batch"
	"tcb/internal/cluster"
	"tcb/internal/sched"
)

func clusterSystem(n int, route cluster.Policy, faults ...Fault) ClusterSystem {
	return ClusterSystem{
		Template: system("tcb", sched.FCFS{}, batch.Concat),
		Replicas: n,
		Route:    route,
		Faults:   faults,
	}
}

// checkTerminal asserts the zero-lost invariant: every generated request
// reached exactly one terminal state.
func checkTerminal(t *testing.T, m *Metrics) {
	t.Helper()
	if m.Lost != 0 {
		t.Fatalf("lost %d requests: %+v", m.Lost, m)
	}
	if m.Scheduled+m.Expired+m.Shed != m.Generated {
		t.Fatalf("terminal counts %d+%d+%d != generated %d",
			m.Scheduled, m.Expired, m.Shed, m.Generated)
	}
	sum := 0
	for _, n := range m.PerReplica {
		sum += n
	}
	if sum != m.Scheduled {
		t.Fatalf("per-replica sum %d != scheduled %d", sum, m.Scheduled)
	}
}

func TestClusterValidation(t *testing.T) {
	reqs := trace(t, 50, 1, 20, 1)
	if _, err := RunCluster(clusterSystem(0, cluster.RoundRobin), reqs); err == nil {
		t.Fatal("0 replicas must fail")
	}
	if _, err := RunCluster(clusterSystem(2, cluster.RoundRobin, Fault{Replica: 5, At: 1}), reqs); err == nil {
		t.Fatal("fault on missing replica must fail")
	}
	if _, err := RunCluster(clusterSystem(2, cluster.RoundRobin, Fault{Replica: 0, At: 1, RecoverAt: 0.5}), reqs); err == nil {
		t.Fatal("recovery before kill must fail")
	}
}

// TestClusterDevicesShareReplicaPool: a replica's Devices engines share its
// pool, so at a rate that saturates one engine a 1-replica × 2-device
// cluster must serve substantially more than 1 × 1.
func TestClusterDevicesShareReplicaPool(t *testing.T) {
	reqs := trace(t, 900, 5, 20, 2)
	one, err := RunCluster(clusterSystem(1, cluster.LeastLoaded), reqs)
	if err != nil {
		t.Fatal(err)
	}
	cs := clusterSystem(1, cluster.LeastLoaded)
	cs.Template.Devices = 2
	two, err := RunCluster(cs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkTerminal(t, one)
	checkTerminal(t, two)
	if sp := two.Throughput() / one.Throughput(); sp < 1.3 {
		t.Fatalf("2-device speedup %.2f < 1.3 (%.0f vs %.0f resp/s)",
			sp, two.Throughput(), one.Throughput())
	}
	if two.BusySeconds <= two.SimSeconds {
		t.Fatalf("2 saturated devices should accumulate busy %v > wall %v",
			two.BusySeconds, two.SimSeconds)
	}
}

// TestClusterMultiDeviceKillZeroLost: killing a replica fails over its pool
// and every device's in-flight batch, so 2 replicas × 2 devices lose nothing
// through a kill and recovery.
func TestClusterMultiDeviceKillZeroLost(t *testing.T) {
	reqs := trace(t, 1200, 3, 20, 5)
	cs := clusterSystem(2, cluster.LeastLoaded, Fault{Replica: 1, At: 1, RecoverAt: 2})
	cs.Template.Devices = 2
	m, err := RunCluster(cs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkTerminal(t, m)
	if m.Shed != 0 {
		t.Fatalf("shed %d with a live replica at all times", m.Shed)
	}
	if m.Failovers == 0 {
		t.Fatal("a kill with queued and in-flight work must fail over")
	}
}

// TestClusterScalesThroughput backs the ext-cluster CI gate: at a rate
// that saturates one replica, two least-loaded replicas must serve
// substantially more responses per second.
func TestClusterScalesThroughput(t *testing.T) {
	reqs := trace(t, 900, 5, 20, 2)
	m1, err := RunCluster(clusterSystem(1, cluster.LeastLoaded), reqs)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RunCluster(clusterSystem(2, cluster.LeastLoaded), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkTerminal(t, m1)
	checkTerminal(t, m2)
	if sp := m2.Throughput() / m1.Throughput(); sp < 1.3 {
		t.Fatalf("2-replica speedup %.2f < 1.3 (%.0f vs %.0f resp/s)",
			sp, m2.Throughput(), m1.Throughput())
	}
}

func TestClusterLengthAffinityBands(t *testing.T) {
	var reqs []*sched.Request
	for i := 0; i < 40; i++ {
		ln := 5 // short: lands on replica 0
		if i%2 == 1 {
			ln = 90 // long: lands on replica 1
		}
		reqs = append(reqs, &sched.Request{
			ID: int64(i), Arrival: float64(i) * 0.01,
			Deadline: float64(i)*0.01 + 5, Len: ln,
		})
	}
	m, err := RunCluster(clusterSystem(2, cluster.LengthAffinity), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkTerminal(t, m)
	if m.PerReplica[0] != 20 || m.PerReplica[1] != 20 {
		t.Fatalf("length bands not respected: %v", m.PerReplica)
	}
}

// TestClusterRoundRobinStartsAtReplicaZero: the simulator routes through
// cluster.Order with its cursor starting at 0, as the live router does, so
// round-robin begins at replica 0 (the simulator's private copy of the
// policy began at 1). No figure routes round-robin, so no figure moved.
func TestClusterRoundRobinStartsAtReplicaZero(t *testing.T) {
	var reqs []*sched.Request
	for i := 0; i < 3; i++ {
		reqs = append(reqs, &sched.Request{ID: int64(i), Arrival: float64(i) * 0.01, Deadline: 5, Len: 10})
	}
	m, err := RunCluster(clusterSystem(2, cluster.RoundRobin), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkTerminal(t, m)
	if m.PerReplica[0] != 2 || m.PerReplica[1] != 1 {
		t.Fatalf("round-robin split %v, want [2 1]", m.PerReplica)
	}
}

func TestClusterAllDownSheds(t *testing.T) {
	reqs := trace(t, 200, 1, 20, 4)
	m, err := RunCluster(clusterSystem(2, cluster.RoundRobin,
		Fault{Replica: 0, At: 0.5},
		Fault{Replica: 1, At: 0.5},
	), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkTerminal(t, m)
	if m.Shed == 0 {
		t.Fatal("arrivals after both kills must shed, not vanish")
	}
}

// TestClusterMillionRequestZeroLost is the acceptance-scale invariant run:
// ~10^6 requests against three replicas while one replica bounces (kill +
// recover) and another dies permanently mid-trace. Every request must
// reach a terminal state, failovers must actually happen, and no request
// may shed while a replica remains alive.
func TestClusterMillionRequestZeroLost(t *testing.T) {
	const rate = 1200
	duration := 1_000_000.0 / rate
	reqs := trace(t, rate, duration, 20, 7)
	if len(reqs) < 900_000 {
		t.Fatalf("trace too small for a million-request run: %d", len(reqs))
	}
	m, err := RunCluster(clusterSystem(3, cluster.LeastLoaded,
		Fault{Replica: 1, At: duration * 0.25, RecoverAt: duration * 0.5},
		Fault{Replica: 2, At: duration * 0.75},
	), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkTerminal(t, m)
	if m.Shed != 0 {
		t.Fatalf("shed %d with a live replica at all times", m.Shed)
	}
	if m.Failovers == 0 {
		t.Fatal("kills with queued work must fail over")
	}
	if m.PerReplica[2] >= m.PerReplica[0] {
		t.Fatalf("permanently killed replica served %d >= survivor's %d",
			m.PerReplica[2], m.PerReplica[0])
	}
	if m.Scheduled == 0 || m.Throughput() == 0 {
		t.Fatalf("degenerate run: %+v", m)
	}
}
