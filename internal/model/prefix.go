package model

import (
	"fmt"

	"tcb/internal/tensor"
)

// Prefix sharing. A request may declare that its first P tokens are a shared
// prompt prefix. The declaration changes the encoder geometry: prefix and
// suffix become two separate attention segments — each with its own
// positional encoding restart at 0 and full mutual isolation, exactly the
// treatment ConcatBatching gives two different requests in one row — while
// the request stays ONE unit for cross-attention and decoding (the decoder
// attends over prefix-then-suffix encoder rows as a single segment).
//
// Because separate positional encoding makes a segment's encoder output a
// function of its own tokens alone (§4.1.1, the property every equality test
// in this repo pins), the declared prefix's encoder rows — and therefore its
// projected cross-attention K/V — are bitwise identical whether the prefix
// is encoded inside the request's row, alone in its own row, or on an
// earlier request entirely. That is what makes a prefix KV cache exact: a
// cache hit replays frozen rows that are bit-for-bit the rows a cold encode
// would have produced (matmul kernels keep per-row accumulation order
// independent of GEMM height, so projecting P rows alone equals projecting
// them inside a taller GEMM).

// PrefixKV is the frozen decode-side state of a shared prefix: the
// per-decoder-layer projected cross-attention keys and values of its encoder
// output. A segment decoding with an attached PrefixKV attends over these
// rows followed by its own (suffix) encoder rows — the "inherited prefix"
// region of the ragged KV cache. The matrices are read-only after
// construction; many concurrent segments may attach the same PrefixKV.
type PrefixKV struct {
	Len    int // prefix length in tokens
	Layers []PrefixLayerKV
}

// PrefixLayerKV is one decoder layer's frozen cross K/V rows (Len × dModel).
type PrefixLayerKV struct {
	K, V *tensor.Matrix
}

// BuildPrefixKV projects a prefix's encoder output (Len × dModel rows)
// through every decoder layer's cross-attention WK/WV, freezing the rows a
// decode would compute for those encoder positions. The result is
// independent of what the prefix was encoded next to (height-invariant
// accumulation), so it can be cached and attached to any later segment that
// declares the same prefix.
func (m *Model) BuildPrefixKV(prefixEnc *tensor.Matrix) (*PrefixKV, error) {
	if prefixEnc == nil || prefixEnc.Rows <= 0 {
		return nil, fmt.Errorf("model: BuildPrefixKV with empty encoder output")
	}
	if prefixEnc.Cols != m.Cfg.DModel {
		return nil, fmt.Errorf("model: BuildPrefixKV encoder width %d != d_model %d", prefixEnc.Cols, m.Cfg.DModel)
	}
	kv := &PrefixKV{Len: prefixEnc.Rows, Layers: make([]PrefixLayerKV, len(m.P.Decoder))}
	for li, layer := range m.P.Decoder {
		kv.Layers[li] = PrefixLayerKV{
			K: layer.CrossAttn.WK.Apply(prefixEnc),
			V: layer.CrossAttn.WV.Apply(prefixEnc),
		}
	}
	return kv, nil
}

// Bytes returns the resident float32 footprint of the frozen K/V rows.
func (kv *PrefixKV) Bytes() int64 {
	var b int64
	for _, l := range kv.Layers {
		b += int64(l.K.Rows*l.K.Cols+l.V.Rows*l.V.Cols) * 4
	}
	return b
}

// prefixAt returns the PrefixKV attached to segment si of a row, or nil.
func (row *BatchDecodeRow) prefixAt(si int) *PrefixKV {
	if si < len(row.Prefixes) {
		return row.Prefixes[si]
	}
	return nil
}

// inheritCross builds a segment's cross K (or V) cache with an inherited
// prefix region: dst rows [0, pfx.Rows) are copied from the frozen prefix
// rows, rows [pfx.Rows, pfx.Rows+seg.Len) from the row-wide projection's
// segment span. dst must be pre-sized to pfx.Rows+seg.Len rows.
func inheritCross(dst, pfx, rowProj *tensor.Matrix, seg Segment) {
	for r := 0; r < pfx.Rows; r++ {
		copy(dst.Row(r), pfx.Row(r))
	}
	for r := 0; r < seg.Len; r++ {
		copy(dst.Row(pfx.Rows+r), rowProj.Row(seg.Start+r))
	}
}

// InsertSegmentPrefix is InsertSegment with an inherited prefix: the new
// segment's cross-attention cache is the prefix's frozen K/V rows followed
// by the projections of encOut (the request's own suffix encoder rows). A
// nil kv degrades to InsertSegment exactly.
func (s *BatchDecodeState) InsertSegmentPrefix(encOut *tensor.Matrix, kv *PrefixKV) (int, error) {
	if kv == nil {
		return s.InsertSegment(encOut)
	}
	n := encOut.Rows
	d := s.m.Cfg.DModel
	total := kv.Len + n
	switch {
	case n <= 0:
		return 0, fmt.Errorf("model: InsertSegmentPrefix with empty encoder output")
	case encOut.Cols != d:
		return 0, fmt.Errorf("model: InsertSegmentPrefix encoder width %d != d_model %d", encOut.Cols, d)
	case len(kv.Layers) != len(s.m.P.Decoder):
		return 0, fmt.Errorf("model: InsertSegmentPrefix has %d prefix layers for %d decoder layers", len(kv.Layers), len(s.m.P.Decoder))
	case total > s.m.P.PosEnc.Rows:
		return 0, fmt.Errorf("model: InsertSegmentPrefix length %d beyond MaxLen %d", total, s.m.P.PosEnc.Rows)
	}
	s.ensureSegCap(s.nSeg + 1)
	ws := s.pool()
	i := s.nSeg
	seg := Segment{Start: 0, Len: n}
	for li, layer := range s.m.P.Decoder {
		lc := s.layers[li]
		// Project the suffix rows, then assemble the inherited-prefix cache:
		// frozen prefix rows first, own rows after.
		sufK := ws.Get(n, d)
		layer.CrossAttn.WK.ApplyInto(sufK, encOut)
		sufV := ws.Get(n, d)
		layer.CrossAttn.WV.ApplyInto(sufV, encOut)
		ck := ws.Get(total, d)
		cv := ws.Get(total, d)
		inheritCross(ck, kv.Layers[li].K, sufK, seg)
		inheritCross(cv, kv.Layers[li].V, sufV, seg)
		ws.Put(sufK)
		ws.Put(sufV)
		lc.selfK = append(lc.selfK, s.emptySelfCache())
		lc.selfV = append(lc.selfV, s.emptySelfCache())
		lc.crossK = append(lc.crossK, ck)
		lc.crossV = append(lc.crossV, cv)
	}
	s.prefixLen = append(s.prefixLen, 0)
	s.finished = append(s.finished, false)
	s.out = append(s.out, nil)
	s.rowStart = append(s.rowStart, s.nSeg+1)
	s.nSeg++
	return i, nil
}
