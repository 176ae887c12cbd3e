package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"tcb/internal/engine"
)

// InferRequest is the JSON body of POST /v1/infer.
type InferRequest struct {
	// Tokens is the tokenized input (use your own tokenizer, or the
	// vocab package). Required.
	Tokens []int `json:"tokens"`
	// DeadlineMS is the scheduling deadline in milliseconds from receipt;
	// its magnitude must fit a time.Duration (~292 years). Zero or negative
	// defers to the SLO class default when Class is set, else 1000.
	DeadlineMS int `json:"deadline_ms"`
	// Class is the request's SLO class ("interactive", "standard", "batch",
	// or whatever the server was configured with). Empty means unclassed:
	// weight 1, no deadline default.
	Class string `json:"class,omitempty"`
	// PrefixLen declares that the first PrefixLen tokens are a shared prompt
	// prefix (0 = none). With prefix sharing enabled server-side, a resident
	// prefix is served from the cache instead of re-encoded; outputs are
	// identical either way.
	PrefixLen int `json:"prefix_len,omitempty"`
}

// InferResponse is the JSON body returned by POST /v1/infer.
type InferResponse struct {
	Output    []int   `json:"output"`
	LatencyMS float64 `json:"latency_ms"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// maxDeadlineMS is the largest deadline_ms magnitude a time.Duration can
// hold; a larger one is a 400, not an overflow into the past (or future).
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// MaxInferBody caps the /v1/infer request body; larger bodies fail with
// 413 before JSON decoding buffers them.
const MaxInferBody = 1 << 20

// Front is everything that differs between HTTP fronts. The handler built
// from it owns the whole /v1/infer contract — body cap, JSON decode,
// deadline/class defaulting, X-Tenant admission, status mapping — so a front
// over one server and a front over a cluster cannot drift apart.
type Front struct {
	// Submit enqueues one request; required. (*Server).SubmitOpts and
	// (*cluster.Cluster).SubmitOpts both fit.
	Submit func(tokens []int, deadline time.Duration, opt SubmitOptions) (<-chan Response, error)
	// Admit is the token-bucket admission check, charged once per HTTP
	// request by input length before Submit is called (internal
	// resubmissions behind Submit are never re-charged). A refusal is a 429
	// with Retry-After. Nil admits everything; (*fair.Limiter).Take fits.
	Admit func(tenant string, cost int) (ok bool, retryAfter time.Duration)
	// Stats is the GET /v1/stats body; required.
	Stats func() any
	// Health is the GET /healthz body and whether it is a 200 or a 503;
	// required.
	Health func() (body any, serviceable bool)
	// Unavailable is one more Submit error that means 503 (the cluster's
	// "no replica would take it"); nil adds none.
	Unavailable error
}

// NewFrontHandler builds the HTTP front:
//
//	POST /v1/infer  — submit one request, blocks until the response
//	GET  /v1/stats  — f.Stats as JSON
//	GET  /healthz   — serviceability probe: 200 with f.Health's JSON while
//	                  traffic is being accepted, 503 with the same body when
//	                  it is not — so an external load balancer can rotate
//	                  the process out
//
// /v1/infer answers exactly once, with one of: 200 (output), 400 (bad JSON,
// empty or over-long tokens, bad prefix_len, deadline_ms out of range, a
// token outside the vocabulary), 405 (not POST), 408 (client went away),
// 413 (body over MaxInferBody), 429 (admission refused or queue full), 500
// (engine failure after retries), 503 (breaker open, shed, draining, no
// replica) or 504 (deadline passed in the queue). Every error has a JSON
// {"error": …} body.
//
// It returns the mux so a front can add its own introspection routes. The
// handler does not own the lifecycle of whatever is behind Submit.
func NewFrontHandler(f Front) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", f.infer)
	mux.HandleFunc("/v1/stats", GetJSON(f.Stats))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		body, ok := f.Health()
		status := http.StatusOK
		if !ok {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, body)
	})
	return mux
}

// NewHTTPHandler exposes one server over HTTP (see NewFrontHandler for the
// routes): stats are serve.Stats, health is serve.Health — 503 while the
// breaker is open or the server is draining. No admission limiter: a bare
// server is a replica, and buckets are charged at the front that owns the
// tenants (cluster.Config.Limiter). It does not own the server's lifecycle
// (call srv.Start/Stop yourself).
func NewHTTPHandler(srv *Server) http.Handler {
	return NewFrontHandler(Front{
		Submit: srv.SubmitOpts,
		Stats:  func() any { return srv.Stats() },
		Health: func() (any, bool) { h := srv.Health(); return h, h.Serviceable },
	})
}

// infer is POST /v1/infer.
func (f Front) infer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxInferBody)
	var req InferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return
	}
	if d := int64(req.DeadlineMS); d > maxDeadlineMS || d < -maxDeadlineMS {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("deadline_ms %d outside ±%d", req.DeadlineMS, maxDeadlineMS))
		return
	}
	if req.DeadlineMS <= 0 && req.Class == "" {
		req.DeadlineMS = 1000
	}
	// Tenant identity rides the X-Tenant header (empty = default tenant);
	// admission charges by input length before the request touches a queue.
	tenant := r.Header.Get(TenantHeader)
	if f.Admit != nil {
		if ok, retry := f.Admit(tenant, len(req.Tokens)); !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			writeErr(w, http.StatusTooManyRequests,
				fmt.Errorf("serve: tenant admission rate exceeded, retry in %s", retry))
			return
		}
	}
	ch, err := f.Submit(req.Tokens, time.Duration(req.DeadlineMS)*time.Millisecond,
		SubmitOptions{Tenant: tenant, Class: req.Class, PrefixLen: req.PrefixLen})
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQueueFull):
			status = http.StatusTooManyRequests
		case errors.Is(err, ErrBreakerOpen), errors.Is(err, ErrServerClosed),
			errors.Is(err, f.Unavailable): // a nil Unavailable matches no error
			// Degraded service: tell clients to back off.
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	select {
	case resp := <-ch:
		var badToken *engine.TokenError
		switch {
		case errors.As(resp.Err, &badToken):
			writeErr(w, http.StatusBadRequest, resp.Err)
		case errors.Is(resp.Err, ErrDeadlineExceeded):
			writeErr(w, http.StatusGatewayTimeout, resp.Err)
		case errors.Is(resp.Err, ErrBreakerOpen):
			// Covers ErrShed too (it wraps ErrBreakerOpen): the request
			// was dropped under degraded service, not by a bug.
			writeErr(w, http.StatusServiceUnavailable, resp.Err)
		case resp.Err != nil:
			writeErr(w, http.StatusInternalServerError, resp.Err)
		default:
			writeJSON(w, http.StatusOK, InferResponse{
				Output:    append([]int{}, resp.Output...),
				LatencyMS: resp.Served.Sub(resp.Queued).Seconds() * 1000,
			})
		}
	case <-r.Context().Done():
		// The client went away; the engine result is discarded when
		// it arrives (the channel is buffered).
		writeErr(w, http.StatusRequestTimeout, r.Context().Err())
	}
}

// GetJSON is a GET-only handler that answers 200 with body() as JSON.
func GetJSON(body func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
			return
		}
		writeJSON(w, http.StatusOK, body())
	}
}

// TenantHeader is the HTTP header carrying tenant identity into /v1/infer.
const TenantHeader = "X-Tenant"

// retryAfterSeconds renders a Retry-After value in whole seconds, rounded
// up (the header does not speak milliseconds).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
