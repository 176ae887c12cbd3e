package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/rng"
	"tcb/internal/sched"
)

func httpServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, _ := testServer(t, sched.NewDAS())
	srv.Start()
	ts := httptest.NewServer(NewHTTPHandler(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Stop()
	})
	return srv, ts
}

func postInfer(t *testing.T, url string, req InferRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPInferRoundTrip(t *testing.T) {
	_, ts := httpServer(t)
	src := rng.New(51)
	tokens := randTokens(src, 6)
	resp, body := postInfer(t, ts.URL, InferRequest{Tokens: tokens, DeadlineMS: 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out InferResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.LatencyMS < 0 {
		t.Fatalf("latency %v", out.LatencyMS)
	}
}

func TestHTTPInferValidation(t *testing.T) {
	_, ts := httpServer(t)
	// Empty tokens.
	resp, _ := postInfer(t, ts.URL, InferRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty tokens: status %d", resp.StatusCode)
	}
	// Oversized request.
	resp, _ = postInfer(t, ts.URL, InferRequest{Tokens: make([]int, 1000)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized: status %d", resp.StatusCode)
	}
	// Corrupt JSON.
	r, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt JSON: status %d", r.StatusCode)
	}
	// Wrong method.
	r, err = http.Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET infer: status %d", r.StatusCode)
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	_, ts := httpServer(t)
	src := rng.New(52)
	postInfer(t, ts.URL, InferRequest{Tokens: randTokens(src, 4), DeadlineMS: 5000})

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted < 1 || st.Served < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ScheduleNs <= 0 || st.ComputeNs <= 0 || st.CleanupNs <= 0 {
		t.Fatalf("per-stage latencies missing from stats JSON: %+v", st)
	}

	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("health status %d", h.StatusCode)
	}
	var hb Health
	if err := json.NewDecoder(h.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if !hb.Serviceable || hb.State != "running" {
		t.Fatalf("healthz body = %+v", hb)
	}
}

// TestHTTPHealthzUnserviceable pins the 503 contract: a server whose
// breaker is open (and later one that is stopped) reports unserviceable
// with the breaker detail an external load balancer needs.
func TestHTTPHealthzUnserviceable(t *testing.T) {
	srv, err := New(Config{
		Engine:           failingRunner{},
		Scheduler:        sched.FCFS{},
		Scheme:           batch.Concat,
		B:                1,
		L:                32,
		Poll:             time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Retry:            RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(srv))
	defer ts.Close()
	srv.Start()

	// One failed batch trips the K=1 breaker open.
	ch, err := srv.Submit([]int{1, 2, 3}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	deadline := time.Now().Add(5 * time.Second)
	for srv.BreakerState() != BreakerOpen && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb Health
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open healthz status %d, want 503 (%+v)", r.StatusCode, hb)
	}
	if hb.Serviceable || hb.Breaker != "open" {
		t.Fatalf("breaker-open healthz body = %+v", hb)
	}

	srv.Stop()
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable || hb.State != "stopped" {
		t.Fatalf("stopped healthz = %d %+v", r.StatusCode, hb)
	}
}

// failingRunner fails every batch.
type failingRunner struct{ stager }

func (failingRunner) RunPreparedRefill(*engine.Prepared, engine.RefillHook) (*engine.Report, error) {
	return nil, errors.New("down")
}

// flakyRunner fails the first n batch launches, then delegates.
type flakyRunner struct {
	stager
	real  *engine.Engine
	fails int
}

func (f *flakyRunner) RunPreparedRefill(p *engine.Prepared, _ engine.RefillHook) (*engine.Report, error) {
	if f.fails > 0 {
		f.fails--
		return nil, errors.New("injected device failure")
	}
	return f.real.Run(p.Batch, p.Tokens)
}

func TestEngineFailureInjection(t *testing.T) {
	_, realEngine := testServer(t, sched.NewDAS())
	// Retry is disabled so the failure surfaces directly — the
	// pre-supervision semantics. supervise_test.go covers retry-on.
	srv, err := New(Config{
		Engine:    &flakyRunner{real: realEngine, fails: 1},
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         2, L: 64,
		Poll:  200 * time.Microsecond,
		Retry: RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	src := rng.New(53)
	// First request hits the injected failure.
	ch, err := srv.Submit(randTokens(src, 4), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	if resp.Err == nil || resp.Err.Error() != "injected device failure" {
		t.Fatalf("expected injected failure, got %v", resp.Err)
	}
	// The server must keep serving afterwards.
	ch, err = srv.Submit(randTokens(src, 4), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp = <-ch
	if resp.Err != nil {
		t.Fatalf("server did not recover: %v", resp.Err)
	}
	st := srv.Stats()
	if st.Failed != 1 || st.Served != 1 {
		t.Fatalf("stats after failure = %+v", st)
	}
}

// TestHTTPBodyCap pins the MaxBytesReader guard: an oversized body fails
// with 413 before it is buffered.
func TestHTTPBodyCap(t *testing.T) {
	_, ts := httpServer(t)
	huge := bytes.Repeat([]byte("9"), MaxInferBody+1024)
	body := append([]byte(`{"tokens":[`), huge...)
	body = append(body, []byte(`]}`)...)
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestHTTPBreakerOpen503 pins degraded-mode signalling: while the breaker
// is open and the reduced queue bound is reached, /v1/infer answers 503
// with a JSON error body, and /v1/stats reports the open state.
func TestHTTPBreakerOpen503(t *testing.T) {
	srv, err := New(Config{
		Engine:    &scriptRunner{failN: 1 << 30},
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         2, L: 64,
		Poll:             200 * time.Microsecond,
		Retry:            RetryPolicy{MaxAttempts: 100, Backoff: time.Millisecond},
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		QueueCap:         8, // open bound 1
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(NewHTTPHandler(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Stop()
	})
	if _, err := srv.Submit(randTokens(rng.New(55), 4), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	// Wait for the trip AND the failed batch's requeue, so the queue is
	// back at the reduced bound before probing the endpoint.
	for srv.BreakerState() != BreakerOpen || srv.QueueLen() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := postInfer(t, ts.URL, InferRequest{Tokens: randTokens(rng.New(56), 4), DeadlineMS: 100})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer while open: status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("503 must carry a JSON error body, got %q (%v)", body, err)
	}
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.BreakerState != "open" || st.BreakerTrips != 1 {
		t.Fatalf("stats while open = %+v", st)
	}
}

// lossyRunner drops one request's result from the report.
type lossyRunner struct {
	stager
	real *engine.Engine
}

func (l *lossyRunner) RunPreparedRefill(p *engine.Prepared, _ engine.RefillHook) (*engine.Report, error) {
	rep, err := l.real.Run(p.Batch, p.Tokens)
	if err != nil || len(rep.Results) == 0 {
		return rep, err
	}
	rep.Results = rep.Results[1:]
	return rep, nil
}

func TestEngineLosingResultsSurfaced(t *testing.T) {
	_, realEngine := testServer(t, sched.NewDAS())
	srv, err := New(Config{
		Engine:    &lossyRunner{real: realEngine},
		Scheduler: sched.NewDAS(),
		Scheme:    batch.Concat,
		B:         1, L: 64,
		Poll: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ch, err := srv.Submit(randTokens(rng.New(54), 4), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	if resp.Err == nil {
		t.Fatal("lost result must surface as an error, not hang")
	}
	if fmt.Sprint(resp.Err) == "" {
		t.Fatal("error must be descriptive")
	}
}

// overflowBody's deadline_ms is past what a time.Duration holds: multiplied
// out unchecked it wraps negative and reads as a deadline already passed in
// the queue (504).
const overflowBody = `{"tokens":[5,6,7],"deadline_ms":9999999999999}`

// TestHTTPDeadlineOverflow400: a deadline_ms beyond time.Duration, either
// sign, is the client's error (400); the largest one that fits is served,
// and so is a negative one under a class (the class default).
func TestHTTPDeadlineOverflow400(t *testing.T) {
	_, ts := httpServer(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{overflowBody, http.StatusBadRequest},
		{fmt.Sprintf(`{"tokens":[5,6,7],"deadline_ms":%d}`, maxDeadlineMS+1), http.StatusBadRequest},
		{fmt.Sprintf(`{"tokens":[5,6,7],"deadline_ms":%d,"class":"batch"}`, -maxDeadlineMS-1), http.StatusBadRequest},
		{fmt.Sprintf(`{"tokens":[5,6,7],"deadline_ms":%d}`, maxDeadlineMS), http.StatusOK},
		{fmt.Sprintf(`{"tokens":[5,6,7],"deadline_ms":%d,"class":"interactive"}`, -maxDeadlineMS), http.StatusOK},
	} {
		r, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.body, r.StatusCode, tc.want)
		}
	}
}

// headerCounter counts how many responses a handler started.
type headerCounter struct {
	*httptest.ResponseRecorder
	n int
}

func (h *headerCounter) WriteHeader(code int) {
	h.n++
	h.ResponseRecorder.WriteHeader(code)
}

// FuzzInfer throws arbitrary bodies at POST /v1/infer on a live server. The
// handler must not panic, must answer exactly once with a status from the
// documented set (NewFrontHandler), must never blame the server (5xx) for a
// body the JSON decoder rejects, and must refuse a deadline_ms whose
// magnitude a time.Duration cannot hold with 400.
func FuzzInfer(f *testing.F) {
	f.Add([]byte(overflowBody))
	f.Add([]byte(`{"tokens":[5,6,7],"deadline_ms":5000}`))
	f.Add([]byte(`{"tokens":[5,6,7],"deadline_ms":-9999999999999,"class":"batch"}`))
	f.Add([]byte(`{"tokens":[5,6,`))                                // malformed
	f.Add([]byte(`{"tokens":[5,6,7],"prefix_len":-1}`))             // negative prefix
	f.Add([]byte(`{"tokens":[]}`))                                  // empty tokens
	f.Add([]byte(`{"tokens":[5,1048576,7]}`))                       // outside the vocabulary
	f.Add([]byte(`{"tokens":[5,6,7],"deadline_ms":"5"}`))           // wrong type
	f.Add([]byte(`{"tokens":[` + strings.Repeat("5,", 64) + `5]}`)) // longer than a row
	srv, _ := testServer(f, sched.NewDAS())
	srv.Start()
	f.Cleanup(srv.Stop)
	h := NewHTTPHandler(srv)
	documented := map[int]bool{200: true, 400: true, 405: true, 408: true, 413: true, 429: true, 500: true, 503: true, 504: true}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := &headerCounter{ResponseRecorder: httptest.NewRecorder()}
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("no response in 5s for %q", body)
		}
		if rec.n != 1 || !documented[rec.Code] {
			t.Fatalf("%d responses, last status %d, for %q", rec.n, rec.Code, body)
		}
		var req InferRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			if rec.Code >= 500 {
				t.Fatalf("status %d for a body the decoder rejects (%v): %q", rec.Code, err, body)
			}
			return
		}
		if d := int64(req.DeadlineMS); (d > maxDeadlineMS || d < -maxDeadlineMS) && len(body) <= MaxInferBody && rec.Code != http.StatusBadRequest {
			t.Fatalf("deadline_ms %d: status %d, want 400", req.DeadlineMS, rec.Code)
		}
	})
}
