package cluster

import (
	"net/http"

	"tcb/internal/serve"
)

// NewHTTPHandler exposes a cluster over HTTP. It is serve's front handler
// (POST /v1/infer, GET /v1/stats, GET /healthz — one implementation, see
// serve.NewFrontHandler) over the cluster's routed, failed-over SubmitOpts,
// with the cluster's limiter as the one admission site, plus:
//
//	GET /v1/stats    — aggregated cluster counters (cluster.Stats), the
//	                   per-server serve.Stats under replicas[i].stats
//	GET /v1/replicas — per-replica rows: state, health, server counters
//	GET /healthz     — 200 while at least one replica is fully
//	                   serviceable; 503 with per-replica breaker and
//	                   ejection detail otherwise
//
// and ErrNoReplicas answered 503. The handler does not own the cluster's
// lifecycle (call Start/Stop yourself).
func NewHTTPHandler(c *Cluster) http.Handler {
	mux := serve.NewFrontHandler(serve.Front{
		Submit:      c.SubmitOpts,
		Admit:       c.cfg.Limiter.Take,
		Stats:       func() any { return c.Stats() },
		Health:      func() (any, bool) { h := c.Health(); return h, h.Serviceable },
		Unavailable: ErrNoReplicas,
	})
	mux.HandleFunc("/v1/replicas", serve.GetJSON(func() any { return c.Stats().Replicas }))
	return mux
}
