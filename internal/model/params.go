package model

import (
	"math"

	"tcb/internal/rng"
	"tcb/internal/tensor"
)

// Linear is a dense affine layer Y = X·W + b.
type Linear struct {
	W *tensor.Matrix // in × out
	B []float32      // out
}

// NewLinear returns a Linear with Xavier-uniform weights drawn from src.
func NewLinear(src *rng.Source, in, out int) *Linear {
	l := &Linear{W: tensor.New(in, out), B: make([]float32, out)}
	bound := float32(math.Sqrt(6 / float64(in+out)))
	for i := range l.W.Data {
		l.W.Data[i] = (float32(src.Float64())*2 - 1) * bound
	}
	return l
}

// Apply returns x·W + b.
func (l *Linear) Apply(x *tensor.Matrix) *tensor.Matrix {
	y := tensor.New(x.Rows, l.W.Cols)
	l.ApplyInto(y, x)
	return y
}

// ApplyInto computes dst = x·W + b into a caller-provided matrix, the
// allocation-free form used by the inference hot path: one GEMM pass that
// adds the bias as it stores each output. dst must be x.Rows × out and must
// not alias x.
func (l *Linear) ApplyInto(dst, x *tensor.Matrix) {
	tensor.MatMulBiasInto(dst, x, l.W, l.B, false)
}

// applyReLUInto is ApplyInto followed by ReLU, in the same single pass.
func (l *Linear) applyReLUInto(dst, x *tensor.Matrix) {
	tensor.MatMulBiasInto(dst, x, l.W, l.B, true)
}

// LayerNorm holds per-feature gain and bias for row normalization.
type LayerNorm struct {
	Gain, Bias []float32
	Eps        float32
}

// NewLayerNorm returns an identity-initialized LayerNorm over dim features.
func NewLayerNorm(dim int, eps float32) *LayerNorm {
	ln := &LayerNorm{Gain: make([]float32, dim), Bias: make([]float32, dim), Eps: eps}
	for i := range ln.Gain {
		ln.Gain[i] = 1
	}
	return ln
}

// Apply normalizes x in place.
func (ln *LayerNorm) Apply(x *tensor.Matrix) {
	tensor.LayerNormRows(x, ln.Gain, ln.Bias, ln.Eps)
}

// AttentionWeights holds the Q/K/V/output projections of one
// multi-head attention block (Eq. 3 plus the output projection).
type AttentionWeights struct {
	WQ, WK, WV, WO *Linear
}

// NewAttentionWeights initializes the four projections from src.
func NewAttentionWeights(src *rng.Source, dModel int) *AttentionWeights {
	return &AttentionWeights{
		WQ: NewLinear(src, dModel, dModel),
		WK: NewLinear(src, dModel, dModel),
		WV: NewLinear(src, dModel, dModel),
		WO: NewLinear(src, dModel, dModel),
	}
}

// FFNWeights holds the two-layer feed-forward block following attention.
type FFNWeights struct {
	In, Out *Linear
}

// NewFFNWeights initializes the feed-forward block from src.
func NewFFNWeights(src *rng.Source, dModel, dFF int) *FFNWeights {
	return &FFNWeights{
		In:  NewLinear(src, dModel, dFF),
		Out: NewLinear(src, dFF, dModel),
	}
}

// ApplyInto runs the FFN into dst, drawing the hidden activation from ws
// (plain allocation when ws is nil). dst must be x.Rows × dModel and must
// not alias x.
func (f *FFNWeights) ApplyInto(dst, x *tensor.Matrix, ws *tensor.Workspace) {
	h := ws.Get(x.Rows, f.In.W.Cols)
	f.In.applyReLUInto(h, x)
	f.Out.ApplyInto(dst, h)
	ws.Put(h)
}

// EncoderLayerWeights bundles one encoder layer: self-attention + FFN with
// post-norm residual connections.
type EncoderLayerWeights struct {
	SelfAttn *AttentionWeights
	FFN      *FFNWeights
	Norm1    *LayerNorm
	Norm2    *LayerNorm
}

// DecoderLayerWeights bundles one decoder layer: masked self-attention,
// cross-attention to the encoder output, and FFN.
type DecoderLayerWeights struct {
	SelfAttn  *AttentionWeights
	CrossAttn *AttentionWeights
	FFN       *FFNWeights
	Norm1     *LayerNorm
	Norm2     *LayerNorm
	Norm3     *LayerNorm
}

// Params holds every weight of the Seq2Seq model.
type Params struct {
	Embedding *tensor.Matrix // VocabSize × DModel token embedding table
	PosEnc    *tensor.Matrix // MaxLen × DModel sinusoidal table
	Encoder   []*EncoderLayerWeights
	Decoder   []*DecoderLayerWeights
	OutProj   *Linear // DModel × VocabSize final projection
}

// NewParams initializes all weights deterministically from seed.
func NewParams(cfg Config, seed uint64) *Params {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	src := rng.New(seed)
	p := &Params{
		Embedding: tensor.New(cfg.VocabSize, cfg.DModel),
		PosEnc:    PositionalEncoding(cfg.MaxLen, cfg.DModel),
		OutProj:   nil,
	}
	scale := float32(1 / math.Sqrt(float64(cfg.DModel)))
	for i := range p.Embedding.Data {
		p.Embedding.Data[i] = (float32(src.Float64())*2 - 1) * scale
	}
	for i := 0; i < cfg.EncLayers; i++ {
		p.Encoder = append(p.Encoder, &EncoderLayerWeights{
			SelfAttn: NewAttentionWeights(src.Split(), cfg.DModel),
			FFN:      NewFFNWeights(src.Split(), cfg.DModel, cfg.DFF),
			Norm1:    NewLayerNorm(cfg.DModel, cfg.Eps),
			Norm2:    NewLayerNorm(cfg.DModel, cfg.Eps),
		})
	}
	for i := 0; i < cfg.DecLayers; i++ {
		p.Decoder = append(p.Decoder, &DecoderLayerWeights{
			SelfAttn:  NewAttentionWeights(src.Split(), cfg.DModel),
			CrossAttn: NewAttentionWeights(src.Split(), cfg.DModel),
			FFN:       NewFFNWeights(src.Split(), cfg.DModel, cfg.DFF),
			Norm1:     NewLayerNorm(cfg.DModel, cfg.Eps),
			Norm2:     NewLayerNorm(cfg.DModel, cfg.Eps),
			Norm3:     NewLayerNorm(cfg.DModel, cfg.Eps),
		})
	}
	p.OutProj = NewLinear(src.Split(), cfg.DModel, cfg.VocabSize)
	return p
}

// Embed looks up token embeddings for ids, producing a len(ids)×DModel
// matrix. Out-of-range ids panic: the engine rejects them upstream
// (engine.TokenError from Prepare and refill admission).
func (p *Params) Embed(ids []int) *tensor.Matrix {
	d := p.Embedding.Cols
	x := tensor.New(len(ids), d)
	for i, id := range ids {
		copy(x.Row(i), p.Embedding.Row(id))
	}
	return x
}
