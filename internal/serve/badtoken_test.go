package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/sched"
)

// TestBadTokenFailsOnlyItsRequest: a request carrying a token id outside the
// vocabulary, launched together with a good one, fails once with the
// engine's TokenError — no retry, no park — while its batchmate is served
// exactly as it is alone and the server keeps serving. Before the engine
// checked tokens this launch panicked inside a row goroutine, out of the
// supervisor's reach, and took the process down.
func TestBadTokenFailsOnlyItsRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*engine.Engine) Runner
	}{
		{"prepared", func(e *engine.Engine) Runner { return e }},
		// Only Run: the engine's token check fires inside supervision.
		{"plain", func(e *engine.Engine) Runner { return plainRunner{e} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := engine.New(model.New(model.Config{
				VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
				EncLayers: 1, DecLayers: 1, MaxLen: 256, Eps: 1e-5,
			}, 5), 3)
			s, err := New(Config{
				Engine: tc.wrap(e), Scheduler: sched.NewDAS(), Scheme: batch.Concat,
				B: 4, L: 64, Poll: 200 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(90)
			// 40 + 40 tokens overflow one 64-token row: both queue before the
			// loop starts, so the first launch holds them in two rows.
			bad := randTokens(src, 40)
			bad[2] = 1 << 20
			good := randTokens(src, 40)
			badCh, err := s.Submit(bad, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			goodCh, err := s.Submit(good, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			defer s.Stop()

			var te *engine.TokenError
			if resp := <-badCh; !errors.As(resp.Err, &te) || te.Token != 1<<20 {
				t.Fatalf("bad request: err = %v, want a TokenError for token %d", resp.Err, 1<<20)
			}
			solo, err := e.RunSingle(1, good)
			if err != nil {
				t.Fatal(err)
			}
			if resp := <-goodCh; resp.Err != nil || !slices.Equal(resp.Output, solo.Output) {
				t.Fatalf("batchmate: %v / %v, want %v alone", resp.Output, resp.Err, solo.Output)
			}
			ch, err := s.Submit(randTokens(src, 4), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if resp := <-ch; resp.Err != nil {
				t.Fatalf("server stopped serving after the bad request: %v", resp.Err)
			}
			if st := s.Stats(); st.Failed != 1 || st.Retried != 0 || st.Panics != 0 || st.Served != 2 {
				t.Fatalf("failed/retried/panics/served = %d/%d/%d/%d, want 1/0/0/2",
					st.Failed, st.Retried, st.Panics, st.Served)
			}
		})
	}
}

// TestHTTPBadToken400: over HTTP the bad token is the client's error.
func TestHTTPBadToken400(t *testing.T) {
	s, _ := testServer(t, batch.Concat, sched.NewDAS())
	s.Start()
	defer s.Stop()
	h := NewHTTPHandler(s)
	post := func(tokens []int) int {
		body, _ := json.Marshal(InferRequest{Tokens: tokens, DeadlineMS: 5000})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
		return rec.Code
	}
	if code := post([]int{1 << 20, 5, 6}); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if code := post([]int{4, 5, 6}); code != http.StatusOK {
		t.Fatalf("status %d after a bad request, want 200", code)
	}
}
