package model

import (
	"math"
	"testing"
	"testing/quick"

	"tcb/internal/rng"
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

const testVocab = 50

func testModel(t testing.TB) *Model {
	t.Helper()
	cfg := Config{
		VocabSize: testVocab, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 2, DecLayers: 2, MaxLen: 256, Eps: 1e-5,
	}
	return New(cfg, 1234)
}

func randTokens(src *rng.Source, n int) []int {
	toks := make([]int, n)
	for i := range toks {
		toks[i] = src.IntRange(vocab.FirstWordID, testVocab-1)
	}
	return toks
}

// buildConcatRow concatenates requests into one padded row.
func buildConcatRow(requests [][]int, total int) ([]int, RowLayout) {
	lengths := make([]int, len(requests))
	for i, r := range requests {
		lengths[i] = len(r)
	}
	layout := ConcatLayout(lengths, total)
	row := make([]int, total) // zero == vocab.PadID
	off := 0
	for _, r := range requests {
		copy(row[off:], r)
		off += len(r)
	}
	return row, layout
}

func TestConfigValidate(t *testing.T) {
	good := TestConfig(100)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{VocabSize: 0, DModel: 8, NumHeads: 2, DFF: 8, MaxLen: 8, Eps: 1e-5},
		{VocabSize: 10, DModel: 0, NumHeads: 2, DFF: 8, MaxLen: 8, Eps: 1e-5},
		{VocabSize: 10, DModel: 9, NumHeads: 2, DFF: 8, MaxLen: 8, Eps: 1e-5},
		{VocabSize: 10, DModel: 8, NumHeads: 2, DFF: 0, MaxLen: 8, Eps: 1e-5},
		{VocabSize: 10, DModel: 8, NumHeads: 2, DFF: 8, MaxLen: 0, Eps: 1e-5},
		{VocabSize: 10, DModel: 8, NumHeads: 2, DFF: 8, MaxLen: 8, Eps: 0},
		{VocabSize: 10, DModel: 8, NumHeads: 2, DFF: 8, MaxLen: 8, Eps: 1e-5, EncLayers: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("config %d should fail validation: %+v", i, c)
		}
	}
	if PaperConfig(100).Validate() != nil {
		t.Fatal("PaperConfig should validate")
	}
}

func TestPositionalEncodingValues(t *testing.T) {
	pe := PositionalEncoding(10, 8)
	// Position 0: sin(0)=0 on even dims, cos(0)=1 on odd dims.
	for d := 0; d < 8; d++ {
		want := float32(0)
		if d%2 == 1 {
			want = 1
		}
		if pe.At(0, d) != want {
			t.Fatalf("PE(0,%d) = %v, want %v", d, pe.At(0, d), want)
		}
	}
	// Spot-check Eq. 1 at pos=3, dim=2: sin(3 / 10000^(2/8)).
	want := float32(math.Sin(3 / math.Pow(10000, 2.0/8)))
	if got := pe.At(3, 2); math.Abs(float64(got-want)) > 1e-6 {
		t.Fatalf("PE(3,2) = %v, want %v", got, want)
	}
	// Eq. 2 at pos=3, dim=5: cos(3 / 10000^(5/8)).
	want = float32(math.Cos(3 / math.Pow(10000, 5.0/8)))
	if got := pe.At(3, 5); math.Abs(float64(got-want)) > 1e-6 {
		t.Fatalf("PE(3,5) = %v, want %v", got, want)
	}
}

func TestSeparatePEMatchesStandalonePositions(t *testing.T) {
	pe := PositionalEncoding(32, 8)
	layout := ConcatLayout([]int{3, 4}, 10)
	x := tensor.New(10, 8) // zeros: output == the PE added
	AddPositionalSeparate(x, pe, layout)
	// Second segment's token k must carry PE(k), not PE(3+k).
	for k := 0; k < 4; k++ {
		for d := 0; d < 8; d++ {
			if x.At(3+k, d) != pe.At(k, d) {
				t.Fatalf("segment 2 token %d dim %d: got %v, want PE(%d)=%v",
					k, d, x.At(3+k, d), k, pe.At(k, d))
			}
		}
	}
	// Padding rows must stay zero.
	for p := 7; p < 10; p++ {
		for d := 0; d < 8; d++ {
			if x.At(p, d) != 0 {
				t.Fatalf("padding row %d received positional encoding", p)
			}
		}
	}
}

func TestTraditionalPEUsesRowOffsets(t *testing.T) {
	pe := PositionalEncoding(32, 8)
	x := tensor.New(10, 8)
	AddPositionalTraditional(x, pe)
	for p := 0; p < 10; p++ {
		if x.At(p, 0) != pe.At(p, 0) {
			t.Fatalf("traditional PE row %d wrong", p)
		}
	}
}

// The central correctness claim of §4.1: encoding a concatenated row with
// separate PE + block-diagonal mask gives, for every request, exactly the
// hidden states it would get when served alone.
func TestConcatEncodeEqualsStandalone(t *testing.T) {
	m := testModel(t)
	src := rng.New(7)
	requests := [][]int{
		randTokens(src, 5),
		randTokens(src, 9),
		randTokens(src, 3),
	}
	row, layout := buildConcatRow(requests, 24)
	// Both routes: the dense mask (the reference) and one block per segment
	// (AttSlotted without slots, what the engine runs) — and exactly, not
	// within a tolerance: a segment's floats accumulate in an order that does
	// not depend on where in the row it sits.
	for _, mode := range []AttentionMode{AttDense, AttSlotted} {
		out := m.EncodeRow(row, layout, nil, mode, true)
		for i, req := range requests {
			solo := m.EncodeSingle(req)
			seg := layout.Segments[i]
			got := out.Slice(seg.Start, seg.End())
			if !got.Equal(solo) {
				t.Fatalf("%v, request %d: concat encode differs from standalone by %g",
					mode, i, got.MaxAbsDiff(solo))
			}
		}
	}
}

// Negative control: with the traditional whole-row PE the results must NOT
// match standalone inference — this is exactly why §4.1.1 exists.
func TestTraditionalPEBreaksConcat(t *testing.T) {
	m := testModel(t)
	src := rng.New(8)
	requests := [][]int{randTokens(src, 4), randTokens(src, 6)}
	row, layout := buildConcatRow(requests, 10)
	// Bypass the safety check by encoding manually with traditional PE.
	x := m.P.Embed(row)
	AddPositionalTraditional(x, m.P.PosEnc)
	mask := layout.BuildMask()
	for _, layer := range m.P.Encoder {
		attn := MultiHeadAttention(layer.SelfAttn, m.Cfg.NumHeads, x, x, mask)
		tensor.AddInPlace(x, attn)
		layer.Norm1.Apply(x)
		ff := tensor.New(x.Rows, x.Cols)
		layer.FFN.ApplyInto(ff, x, nil)
		tensor.AddInPlace(x, ff)
		layer.Norm2.Apply(x)
	}
	seg := layout.Segments[1]
	got := x.Slice(seg.Start, seg.End())
	solo := m.EncodeSingle(requests[1])
	if got.AllClose(solo, 1e-3) {
		t.Fatal("traditional PE should corrupt the second request's encoding")
	}
}

// Negative control: without the mask, inter-request attention corrupts
// results — why §4.1.2 exists.
func TestMissingMaskBreaksConcat(t *testing.T) {
	m := testModel(t)
	src := rng.New(9)
	requests := [][]int{randTokens(src, 4), randTokens(src, 6)}
	row, layout := buildConcatRow(requests, 10)
	x := m.embedRow(row, layout, true)
	for _, layer := range m.P.Encoder {
		attn := MultiHeadAttention(layer.SelfAttn, m.Cfg.NumHeads, x, x, nil)
		tensor.AddInPlace(x, attn)
		layer.Norm1.Apply(x)
		ff := tensor.New(x.Rows, x.Cols)
		layer.FFN.ApplyInto(ff, x, nil)
		tensor.AddInPlace(x, ff)
		layer.Norm2.Apply(x)
	}
	seg := layout.Segments[0]
	got := x.Slice(seg.Start, seg.End())
	solo := m.EncodeSingle(requests[0])
	if got.AllClose(solo, 1e-3) {
		t.Fatal("unmasked concat attention should corrupt results")
	}
}

// Slotted attention (Eq. 8) must be numerically equivalent to dense masked
// attention for any slot partition.
func TestSlottedEqualsDense(t *testing.T) {
	m := testModel(t)
	src := rng.New(10)
	requests := [][]int{
		randTokens(src, 4), randTokens(src, 3),
		randTokens(src, 5), randTokens(src, 2),
	}
	row, layout := buildConcatRow(requests, 18)
	dense := m.EncodeRow(row, layout, nil, AttDense, true)
	for _, size := range []int{5, 7, 9, 14} {
		slots, err := layout.SlotsOfSize(size)
		if err != nil {
			t.Fatal(err)
		}
		slotted := m.EncodeRow(row, layout, slots, AttSlotted, true)
		if !slotted.Equal(dense) {
			t.Fatalf("slot size %d: slotted differs from dense by %g",
				size, slotted.MaxAbsDiff(dense))
		}
	}
}

func TestSlottedWithWholeRowSlotEqualsDense(t *testing.T) {
	m := testModel(t)
	src := rng.New(11)
	requests := [][]int{randTokens(src, 6), randTokens(src, 4)}
	row, layout := buildConcatRow(requests, 12)
	dense := m.EncodeRow(row, layout, nil, AttDense, true)
	slotted := m.EncodeRow(row, layout, layout.WholeRowSlot(), AttSlotted, true)
	if !slotted.Equal(dense) {
		t.Fatalf("whole-row slot differs from dense by %g", slotted.MaxAbsDiff(dense))
	}
}

func TestEncodeRowRejectsConcatWithoutSeparatePE(t *testing.T) {
	m := testModel(t)
	row, layout := buildConcatRow([][]int{{5, 6}, {7, 8}}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: concat rows need separate PE")
		}
	}()
	m.EncodeRow(row, layout, nil, AttDense, false)
}

// Padding must not influence results: the same requests with different
// amounts of trailing padding encode identically.
func TestPaddingInvariance(t *testing.T) {
	m := testModel(t)
	src := rng.New(12)
	requests := [][]int{randTokens(src, 4), randTokens(src, 5)}
	rowA, layoutA := buildConcatRow(requests, 9) // exactly full
	rowB, layoutB := buildConcatRow(requests, 20)
	outA := m.EncodeRow(rowA, layoutA, nil, AttDense, true)
	outB := m.EncodeRow(rowB, layoutB, nil, AttDense, true)
	if !outB.Slice(0, 9).Equal(outA) {
		t.Fatalf("padding changed results by %g", outB.Slice(0, 9).MaxAbsDiff(outA))
	}
}

// Generation over a concatenated row must emit the same tokens as running
// each request alone.
func TestGenerateRowEqualsStandalone(t *testing.T) {
	m := testModel(t)
	src := rng.New(13)
	requests := [][]int{randTokens(src, 5), randTokens(src, 7), randTokens(src, 3)}
	row, layout := buildConcatRow(requests, 20)
	encOut := m.EncodeRow(row, layout, nil, AttDense, true)
	batch := m.GenerateRow(encOut, layout, nil, 6, AttDense)

	for i, req := range requests {
		soloLayout := SingleSegment(len(req), len(req))
		soloEnc := m.EncodeRow(req, soloLayout, nil, AttDense, true)
		solo := m.GenerateRow(soloEnc, soloLayout, nil, 6, AttDense)
		if len(solo) != 1 {
			t.Fatalf("solo results = %d", len(solo))
		}
		if len(batch[i].Tokens) != len(solo[0].Tokens) {
			t.Fatalf("request %d: batch generated %v, solo %v",
				i, batch[i].Tokens, solo[0].Tokens)
		}
		for j := range solo[0].Tokens {
			if batch[i].Tokens[j] != solo[0].Tokens[j] {
				t.Fatalf("request %d token %d: batch %d != solo %d",
					i, j, batch[i].Tokens[j], solo[0].Tokens[j])
			}
		}
	}
}

// Slotted generation must agree with dense generation token for token.
func TestGenerateRowSlottedEqualsDense(t *testing.T) {
	m := testModel(t)
	src := rng.New(14)
	requests := [][]int{randTokens(src, 4), randTokens(src, 4), randTokens(src, 6)}
	row, layout := buildConcatRow(requests, 16)
	slots, err := layout.SlotsOfSize(8)
	if err != nil {
		t.Fatal(err)
	}
	encDense := m.EncodeRow(row, layout, nil, AttDense, true)
	encSlot := m.EncodeRow(row, layout, slots, AttSlotted, true)
	dense := m.GenerateRow(encDense, layout, nil, 5, AttDense)
	slotted := m.GenerateRow(encSlot, layout, slots, 5, AttSlotted)
	for i := range dense {
		if len(dense[i].Tokens) != len(slotted[i].Tokens) {
			t.Fatalf("request %d: dense %v vs slotted %v", i, dense[i].Tokens, slotted[i].Tokens)
		}
		for j := range dense[i].Tokens {
			if dense[i].Tokens[j] != slotted[i].Tokens[j] {
				t.Fatalf("request %d token %d differs", i, j)
			}
		}
	}
}

func TestGenerateRowRespectsMaxNew(t *testing.T) {
	m := testModel(t)
	src := rng.New(15)
	req := randTokens(src, 5)
	layout := SingleSegment(5, 5)
	encOut := m.EncodeRow(req, layout, nil, AttDense, true)
	for _, maxNew := range []int{0, 1, 3} {
		res := m.GenerateRow(encOut, layout, nil, maxNew, AttDense)
		if len(res[0].Tokens) > maxNew {
			t.Fatalf("maxNew %d: generated %d tokens", maxNew, len(res[0].Tokens))
		}
		if res[0].Steps > maxNew {
			t.Fatalf("maxNew %d: took %d steps", maxNew, res[0].Steps)
		}
	}
}

func TestRegroupSlots(t *testing.T) {
	encLayout := ConcatLayout([]int{3, 4, 2}, 12)
	encSlots, err := encLayout.SlotsOfSize(7)
	if err != nil {
		t.Fatal(err)
	}
	decLayout := ConcatLayout([]int{1, 2, 5}, 8)
	dec := regroupSlots(encSlots, decLayout)
	if len(dec) != len(encSlots) {
		t.Fatalf("regrouped %d slots, want %d", len(dec), len(encSlots))
	}
	// Slot 0 groups segments {0,1}: decoder offsets 0..3.
	if dec[0].Start != 0 || dec[0].Len != 3 {
		t.Fatalf("dec slot 0 = %+v", dec[0])
	}
	// Slot 1 groups segment {2}: decoder offsets 3..8.
	if dec[1].Start != 3 || dec[1].Len != 5 {
		t.Fatalf("dec slot 1 = %+v", dec[1])
	}
}

func TestEmbedRowLengthMismatchPanics(t *testing.T) {
	m := testModel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on token/layout mismatch")
		}
	}()
	m.embedRow([]int{1, 2, 3}, SingleSegment(2, 2), true)
}

// Property: for random request sets, concat encoding equals standalone
// encoding for every request. Small dims keep the property test fast.
func TestConcatEquivalenceProperty(t *testing.T) {
	cfg := Config{VocabSize: 30, DModel: 16, NumHeads: 2, DFF: 32,
		EncLayers: 1, DecLayers: 1, MaxLen: 64, Eps: 1e-5}
	m := New(cfg, 99)
	f := func(seed uint16, n uint8) bool {
		src := rng.New(uint64(seed) + 1)
		count := int(n%3) + 1
		var requests [][]int
		total := 0
		for i := 0; i < count; i++ {
			l := src.IntRange(1, 8)
			toks := make([]int, l)
			for j := range toks {
				toks[j] = src.IntRange(vocab.FirstWordID, 29)
			}
			requests = append(requests, toks)
			total += l
		}
		row, layout := buildConcatRow(requests, total+int(n%4))
		out := m.EncodeRow(row, layout, nil, AttDense, true)
		for i, req := range requests {
			solo := m.EncodeSingle(req)
			seg := layout.Segments[i]
			if !out.Slice(seg.Start, seg.End()).Equal(solo) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAttentionModeString(t *testing.T) {
	if AttDense.String() != "dense" || AttSlotted.String() != "slotted" {
		t.Fatal("mode names wrong")
	}
	if AttentionMode(9).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

func BenchmarkEncodeDense(b *testing.B) {
	m := testModel(b)
	src := rng.New(1)
	requests := [][]int{randTokens(src, 20), randTokens(src, 20), randTokens(src, 20), randTokens(src, 20)}
	row, layout := buildConcatRow(requests, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EncodeRow(row, layout, nil, AttDense, true)
	}
}

func BenchmarkEncodeSlotted(b *testing.B) {
	m := testModel(b)
	src := rng.New(1)
	requests := [][]int{randTokens(src, 20), randTokens(src, 20), randTokens(src, 20), randTokens(src, 20)}
	row, layout := buildConcatRow(requests, 80)
	slots, err := layout.SlotsOfSize(20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EncodeRow(row, layout, slots, AttSlotted, true)
	}
}
