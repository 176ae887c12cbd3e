package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"tcb/internal/engine"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/serve"
)

func httpCluster(t *testing.T) (*Cluster, *httptest.Server) {
	t.Helper()
	c, err := New(Config{Replicas: 2, Spawn: echoSpawn(nil)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(c))
	t.Cleanup(func() {
		ts.Close()
		c.Stop()
	})
	return c, ts
}

func TestHTTPClusterInfer(t *testing.T) {
	_, ts := httpCluster(t)
	body, _ := json.Marshal(serve.InferRequest{Tokens: tokens(5), DeadlineMS: 5000})
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out serve.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Output) == 0 || out.LatencyMS < 0 {
		t.Fatalf("response = %+v", out)
	}
}

func TestHTTPClusterStatsAndReplicas(t *testing.T) {
	c, ts := httpCluster(t)
	ch, err := c.Submit(tokens(4), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	<-ch

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Delivered != 1 || len(st.Replicas) != 2 {
		t.Fatalf("stats = %+v", st)
	}

	r2, err := http.Get(ts.URL + "/v1/replicas")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var rows []ReplicaStats
	if err := json.NewDecoder(r2.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].State != "healthy" || rows[1].State != "healthy" {
		t.Fatalf("replica rows = %+v", rows)
	}
}

// TestHTTPClusterHealthz pins the balancer contract: 200 with detail while
// a replica is serviceable, 503 with the same per-replica body after
// teardown.
func TestHTTPClusterHealthz(t *testing.T) {
	c, ts := httpCluster(t)
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !h.Serviceable || h.Healthy != 2 {
		t.Fatalf("healthz status %d body %+v", r.StatusCode, h)
	}

	c.Stop()
	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var h2 Health
	if err := json.NewDecoder(r2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusServiceUnavailable || h2.Serviceable {
		t.Fatalf("healthz after stop: status %d body %+v", r2.StatusCode, h2)
	}
	if len(h2.Replicas) != 2 || h2.Replicas[0].Health.State != "stopped" {
		t.Fatalf("503 body must carry per-replica detail: %+v", h2)
	}
}

// TestHTTPClusterPrefixLenSurvives is the regression test for the forked
// cluster front, which rebuilt SubmitOptions without prefix_len: the prefix
// cache could never hit behind `tcb-serve -replicas N -http`. The same
// declared-prefix request POSTed twice must hit on the second pass and
// answer exactly what the undeclared request answers.
func TestHTTPClusterPrefixLenSurvives(t *testing.T) {
	m := model.New(model.Config{
		VocabSize: 64, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}, 21)
	c, err := New(Config{Replicas: 1, Spawn: func(int) (*serve.Server, func(), error) {
		eng := engine.New(m, 3)
		pc := prefixcache.New(0, gpu.NewMemoryManager(0))
		eng.PrefixCache = pc
		srv, err := testServe(eng, func(cfg *serve.Config) { cfg.PrefixCache = pc })
		return srv, nil, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(c))
	t.Cleanup(func() { ts.Close(); c.Stop() })

	post := func(req serve.InferRequest) []int {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out serve.InferResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Output
	}
	declared := serve.InferRequest{Tokens: tokens(16), DeadlineMS: 5000, PrefixLen: 12}
	cold := post(declared) // miss: encodes and freezes the prefix
	hit := post(declared)
	plain := post(serve.InferRequest{Tokens: tokens(16), DeadlineMS: 5000})
	if st := c.Stats(); st.Prefix.Hits < 1 {
		t.Fatalf("prefix_len did not reach the replica: prefix stats %+v", st.Prefix)
	}
	if !reflect.DeepEqual(cold, plain) || !reflect.DeepEqual(hit, plain) {
		t.Fatalf("outputs differ: cold %v hit %v undeclared %v", cold, hit, plain)
	}
}

// TestHTTPClusterBadToken400: a token id outside the vocabulary is the
// client's error — terminal at the cluster, with no failover onto a replica
// that would refuse it the same way, and a 400 at the front.
func TestHTTPClusterBadToken400(t *testing.T) {
	m := model.New(model.Config{
		VocabSize: 64, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
	}, 21)
	c, err := New(Config{Replicas: 2, Spawn: func(int) (*serve.Server, func(), error) {
		srv, err := testServe(engine.New(m, 3), nil)
		return srv, nil, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(c))
	t.Cleanup(func() { ts.Close(); c.Stop() })
	post := func(tokens []int) int {
		t.Helper()
		body, _ := json.Marshal(serve.InferRequest{Tokens: tokens, DeadlineMS: 5000})
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post([]int{1 << 20, 5, 6}); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if st := c.Stats(); st.Failovers != 0 {
		t.Fatalf("a bad token failed over %d times", st.Failovers)
	}
	if code := post(tokens(5)); code != http.StatusOK {
		t.Fatalf("status %d after a bad request, want 200", code)
	}
}

// TestHTTPClusterNoReplicas503: the one status the cluster front adds to the
// shared handler's mapping — nobody to route to is a 503, not a 400.
func TestHTTPClusterNoReplicas503(t *testing.T) {
	c, ts := httpCluster(t)
	c.mu.Lock()
	for _, r := range c.replicas {
		r.respawning = true // the router skips respawning members
	}
	c.mu.Unlock()
	t.Cleanup(func() {
		c.mu.Lock()
		for _, r := range c.replicas {
			r.respawning = false
		}
		c.mu.Unlock()
	})
	body, _ := json.Marshal(serve.InferRequest{Tokens: tokens(5), DeadlineMS: 5000})
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}
