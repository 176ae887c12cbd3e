// Package tcb is a from-scratch Go reproduction of "TCB: Accelerating
// Transformer Inference Services with Request Concatenation" (Fu, Chen,
// Li, Zeng — ICPP 2022): a transformer inference serving system built
// around two coupled ideas —
//
//   - ConcatBatching: concatenate several variable-length requests in one
//     batch row, with separate per-request positional encoding and a
//     block-diagonal attention mask so results are exactly what each
//     request would get alone; the slotted refinement computes attention
//     per slot and enables early GPU-memory cleaning; and
//   - DAS: an online deadline-aware scheduler with a provable
//     ηq/(ηq+1) competitive ratio that decides which requests join each
//     batch.
//
// This package is the public façade: it re-exports the stable surface of
// the internal packages. Three layers are exposed:
//
//   - the model/engine layer (NewModel, NewEngine) — real float32
//     transformer inference with all three batching schemes;
//   - the serving layer (NewServer) — a live goroutine pipeline with
//     deadlines, pluggable scheduling and batching; and
//   - the evaluation layer (GenerateWorkload, Simulate, RunExperiments) —
//     the discrete-event simulator and the paper's figures.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured record.
package tcb

import (
	"io"
	"net/http"

	"tcb/internal/batch"
	"tcb/internal/cost"
	"tcb/internal/engine"
	"tcb/internal/experiments"
	"tcb/internal/model"
	"tcb/internal/sched"
	"tcb/internal/serve"
	"tcb/internal/sim"
	"tcb/internal/train"
	"tcb/internal/vocab"
	"tcb/internal/workload"
)

// Model layer.
type (
	// ModelConfig describes the Seq2Seq transformer (§6.1's shape by
	// default; every dimension is configurable).
	ModelConfig = model.Config
	// Model is a transformer with ConcatBatching-aware inference.
	Model = model.Model
	// Engine executes batch layouts on a Model.
	Engine = engine.Engine
	// EngineResult is the per-request output of one batch execution.
	EngineResult = engine.Result
	// EngineReport summarizes one batch execution (results, wall-clock,
	// memory-cleaning accounting).
	EngineReport = engine.Report
)

// PaperModelConfig returns the §6.1 evaluation model: 3 encoders, 3
// decoders, d_model 3072, 8 heads, max 400 words.
func PaperModelConfig(vocabSize int) ModelConfig { return model.PaperConfig(vocabSize) }

// SmallModelConfig returns a laptop-scale configuration with the same
// architecture.
func SmallModelConfig(vocabSize int) ModelConfig { return model.TestConfig(vocabSize) }

// NewModel builds a model with deterministic random weights.
func NewModel(cfg ModelConfig, seed uint64) *Model { return model.New(cfg, seed) }

// NewEngine wraps a model in an inference engine generating at most maxNew
// tokens per request.
func NewEngine(m *Model, maxNew int) *Engine { return engine.New(m, maxNew) }

// Batching layer.
type (
	// Scheme selects a batching scheme: Naive (TNB), Turbo (TTB), Concat
	// (pure ConcatBatching) or SlottedConcat.
	Scheme = batch.Scheme
	// Item is one request as the batcher sees it.
	Item = batch.Item
	// Batch is a packed layout ready for the engine.
	Batch = batch.Batch
)

// Batching schemes (Fig. 1 of the paper plus §4.2's slotted variant).
const (
	Naive         = batch.Naive
	Turbo         = batch.Turbo
	Concat        = batch.Concat
	SlottedConcat = batch.SlottedConcat
)

// PackNaive lays items out one per row, padded to the longest (TNB).
func PackNaive(items []Item, maxRows, maxLen int) (*Batch, []Item) {
	return batch.PackNaive(items, maxRows, maxLen)
}

// PackConcat concatenates items into rows of capacity rowLen (pure TCB).
func PackConcat(items []Item, maxRows, rowLen int) (*Batch, []Item) {
	return batch.PackConcat(items, maxRows, rowLen)
}

// PackSlotted concatenates items within fixed-size slots (slotted TCB).
func PackSlotted(items []Item, maxRows, rowLen, slotSize int) (*Batch, []Item) {
	return batch.PackSlotted(items, maxRows, rowLen, slotSize)
}

// Scheduling layer.
type (
	// Request is one inference request with arrival, deadline and length.
	Request = sched.Request
	// Scheduler selects requests for each batch slot.
	Scheduler = sched.Scheduler
	// Decision is a scheduler's per-row assignment.
	Decision = sched.Decision
	// DAS is Algorithm 1 with tunable η and q.
	DAS = sched.DAS
	// SlottedDAS is Algorithm 2.
	SlottedDAS = sched.SlottedDAS
	// FCFS, SJF and DEF are the baseline schedulers of §6.2.4.
	FCFS = sched.FCFS
	SJF  = sched.SJF
	DEF  = sched.DEF
)

// NewDAS returns the paper's deadline-aware scheduler with η = q = ½
// (the ⅕-competitive configuration of Theorem 5.1).
func NewDAS() *DAS { return sched.NewDAS() }

// NewSlottedDAS returns Algorithm 2 with the default DAS parameters.
func NewSlottedDAS() *SlottedDAS { return sched.NewSlottedDAS() }

// Serving layer.
type (
	// ServerConfig configures the live server. Its Scheme must be Concat:
	// the server lays every launch out as concatenated rows, and NewServer
	// refuses any other scheme. Naive, Turbo and SlottedConcat are the
	// paper's baselines, which the simulator (Simulate) and the figures run.
	ServerConfig = serve.Config
	// Server is a running TCB serving instance.
	Server = serve.Server
	// Response is the outcome of one submitted request.
	Response = serve.Response
)

// Serving errors.
var (
	ErrDeadlineExceeded = serve.ErrDeadlineExceeded
	ErrServerClosed     = serve.ErrServerClosed
	ErrQueueFull        = serve.ErrQueueFull
)

// NewServer validates cfg and returns an unstarted server.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }

// ServerStats is a point-in-time snapshot of server counters.
type ServerStats = serve.Stats

// EngineRunner is the engine seam behind the server — Prepare +
// RunPreparedRefill — for fault injection and alternative backends.
type EngineRunner = serve.Runner

// NewHTTPHandler exposes a server over HTTP (POST /v1/infer,
// GET /v1/stats, GET /healthz).
func NewHTTPHandler(srv *Server) http.Handler { return serve.NewHTTPHandler(srv) }

// Training layer (an extension beyond the paper, which serves pre-trained
// models): manual backprop through the full stack with Adam, verified by
// numerical gradient checks.
type (
	// TrainExample is one supervised (source, target) pair.
	TrainExample = train.Example
	// TrainConfig drives the Fit loop.
	TrainConfig = train.Config
)

// Fit trains the model on examples with teacher forcing + Adam and returns
// the per-step losses.
func Fit(m *Model, examples []TrainExample, cfg TrainConfig) ([]float64, error) {
	return train.Fit(m, examples, cfg)
}

// SaveModel / LoadModel persist checkpoints (config + weights).
func SaveModel(m *Model, path string) error { return m.SaveFile(path) }

// LoadModel reads a checkpoint written by SaveModel.
func LoadModel(path string) (*Model, error) { return model.LoadFile(path) }

// Vocabulary helpers for the examples.
type Vocab = vocab.Vocab

// Reserved token ids.
const (
	PadID       = vocab.PadID
	BosID       = vocab.BosID
	EosID       = vocab.EosID
	UnkID       = vocab.UnkID
	FirstWordID = vocab.FirstWordID
)

// BuildVocab constructs a word-level vocabulary over the corpus lines.
func BuildVocab(corpus []string) *Vocab { return vocab.Build(corpus) }

// Evaluation layer.
type (
	// CostParams are the constants of the simulated batch-time model.
	CostParams = cost.Params
	// WorkloadSpec describes a synthetic arrival/length/deadline process.
	WorkloadSpec = workload.Spec
	// SimSystem is one (scheduler, scheme) serving configuration.
	SimSystem = sim.System
	// SimMetrics aggregates one simulation run.
	SimMetrics = sim.Metrics
	// ExperimentOptions scales the paper-figure runners.
	ExperimentOptions = experiments.Options
)

// DefaultCostParams derives cost-model constants for a model shape on a
// simulated V100-class device.
func DefaultCostParams(cfg ModelConfig) CostParams { return cost.DefaultParams(cfg) }

// CalibratedCostParams returns the constants calibrated to reproduce the
// shapes of the paper's V100 serving measurements (see
// internal/experiments.V100Params).
func CalibratedCostParams() CostParams { return experiments.V100Params() }

// PaperWorkload returns §6.2.1's workload spec (lengths 3–100, mean 20,
// variance 20, Poisson arrivals) at the given rate.
func PaperWorkload(rate, duration float64, seed uint64) WorkloadSpec {
	return workload.PaperSpec(rate, duration, seed)
}

// GenerateWorkload produces a deterministic request trace.
func GenerateWorkload(spec WorkloadSpec) ([]*Request, error) { return workload.Generate(spec) }

// Length distributions for synthetic workloads beyond the paper's
// truncated normal (§1 motivates highly variable corpora).
type (
	LengthDist       = workload.LengthDist
	NormalLengths    = workload.NormalLengths
	BimodalLengths   = workload.BimodalLengths
	LogNormalLengths = workload.LogNormalLengths
)

// GenerateWorkloadWithDist is GenerateWorkload with an arbitrary length
// distribution.
func GenerateWorkloadWithDist(spec WorkloadSpec, dist LengthDist) ([]*Request, error) {
	return workload.GenerateWithDist(spec, dist)
}

// SaveWorkload / LoadWorkload persist traces as JSON for replay.
func SaveWorkload(path string, spec *WorkloadSpec, reqs []*Request) error {
	return workload.SaveFile(path, spec, reqs)
}

// LoadWorkload reads a JSON trace written by SaveWorkload.
func LoadWorkload(path string) (*WorkloadSpec, []*Request, error) {
	return workload.LoadFile(path)
}

// Simulate replays a trace against a serving configuration.
func Simulate(sys SimSystem, trace []*Request) (*SimMetrics, error) { return sim.Run(sys, trace) }

// RunExperiments regenerates the named paper figures (all when ids is
// empty), rendering text tables to w. See cmd/tcb-bench.
func RunExperiments(w io.Writer, opt ExperimentOptions, ids ...string) error {
	return experiments.RunAndRender(w, opt, ids...)
}

// RunSlottedSpeedup measures the Fig. 13/14 slotted-attention speedup on
// the real engine at the given batch shape and renders the table to w.
func RunSlottedSpeedup(w io.Writer, batchRows, rowLen int) error {
	opt := experiments.DefaultSlottedOptions(batchRows)
	opt.RowLen = rowLen
	if rowLen%opt.ReqLen != 0 {
		opt.ReqLen = rowLen / 20
		if opt.ReqLen < 1 {
			opt.ReqLen = 1
		}
	}
	fig, err := experiments.SlottedSpeedup(opt)
	if err != nil {
		return err
	}
	return fig.Render(w)
}
