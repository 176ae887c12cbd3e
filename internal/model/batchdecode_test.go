package model

import (
	"reflect"
	"testing"

	"tcb/internal/rng"
	"tcb/internal/vocab"
)

// encodeRows encodes each request group into one concatenated row and returns
// the fused-decoder inputs plus per-row caps.
func encodeRows(m *Model, groups [][][]int, padTo int, cap int) ([]BatchDecodeRow, [][]int) {
	rows := make([]BatchDecodeRow, len(groups))
	caps := make([][]int, len(groups))
	for r, requests := range groups {
		row, layout := buildConcatRow(requests, padTo)
		rows[r] = BatchDecodeRow{
			EncOut: m.EncodeRow(row, layout, nil, AttDense, true),
			Layout: layout,
		}
		caps[r] = make([]int, len(requests))
		for i := range caps[r] {
			caps[r][i] = cap
		}
	}
	return rows, caps
}

// The tentpole correctness claim: fused batch-wide decoding is
// token-identical to per-row cached decoding, which is token-identical to
// mask-based decoding — for single-segment (naive) rows, multi-segment
// concat rows, and mixed batches.
func TestGenerateBatchCachedMatchesPerRow(t *testing.T) {
	m := testModel(t)
	src := rng.New(42)
	cases := []struct {
		name   string
		groups [][][]int
	}{
		{"naive single-segment rows", [][][]int{
			{randTokens(src, 7)},
			{randTokens(src, 12)},
			{randTokens(src, 4)},
		}},
		{"concat multi-segment rows", [][][]int{
			{randTokens(src, 5), randTokens(src, 9), randTokens(src, 3)},
			{randTokens(src, 8), randTokens(src, 6)},
		}},
		{"mixed segment counts", [][][]int{
			{randTokens(src, 10)},
			{randTokens(src, 4), randTokens(src, 4), randTokens(src, 4), randTokens(src, 4)},
			{randTokens(src, 2), randTokens(src, 13)},
		}},
	}
	const cap = 12
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, caps := encodeRows(m, tc.groups, 24, cap)
			fused, err := m.GenerateBatchCached(rows, caps)
			if err != nil {
				t.Fatal(err)
			}
			for r := range rows {
				perRow, err := m.GenerateRowCached(rows[r].EncOut, rows[r].Layout, caps[r])
				if err != nil {
					t.Fatal(err)
				}
				masked := m.GenerateRowCapped(rows[r].EncOut, rows[r].Layout, nil, caps[r], AttDense)
				if !reflect.DeepEqual(fused[r], perRow) {
					t.Fatalf("row %d: fused %v != per-row cached %v", r, fused[r], perRow)
				}
				if !reflect.DeepEqual(fused[r], masked) {
					t.Fatalf("row %d: fused %v != mask-based %v", r, fused[r], masked)
				}
			}
		})
	}
}

// Slotted-encoded rows must decode identically through the fused and
// per-row cached paths too (the decoder is scheme-agnostic; only the encoder
// output differs).
func TestGenerateBatchCachedSlottedRows(t *testing.T) {
	m := testModel(t)
	src := rng.New(43)
	groups := [][][]int{
		{randTokens(src, 6), randTokens(src, 6)},
		{randTokens(src, 9), randTokens(src, 3)},
	}
	const padTo, cap = 16, 10
	rows := make([]BatchDecodeRow, len(groups))
	caps := make([][]int, len(groups))
	for r, requests := range groups {
		row, layout := buildConcatRow(requests, padTo)
		rows[r] = BatchDecodeRow{
			EncOut: m.EncodeRow(row, layout, layout.WholeRowSlot(), AttSlotted, true),
			Layout: layout,
		}
		caps[r] = []int{cap, cap}
	}
	fused, err := m.GenerateBatchCached(rows, caps)
	if err != nil {
		t.Fatal(err)
	}
	for r := range rows {
		perRow, err := m.GenerateRowCached(rows[r].EncOut, rows[r].Layout, caps[r])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused[r], perRow) {
			t.Fatalf("slotted row %d: fused %v != per-row cached %v", r, fused[r], perRow)
		}
	}
}

// Asymmetric caps, zero caps and empty rows must all round-trip through the
// fused decoder with per-segment stopping intact.
func TestGenerateBatchCachedCapsAndEdges(t *testing.T) {
	m := testModel(t)
	src := rng.New(44)
	groups := [][][]int{
		{randTokens(src, 5), randTokens(src, 7)},
		{randTokens(src, 6)},
	}
	rows, _ := encodeRows(m, groups, 16, 0)
	caps := [][]int{{3, 0}, {8}}
	fused, err := m.GenerateBatchCached(rows, caps)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused[0][0].Tokens) > 3 {
		t.Fatalf("cap 3 produced %d tokens", len(fused[0][0].Tokens))
	}
	if len(fused[0][1].Tokens) != 0 || fused[0][1].Steps != 0 {
		t.Fatalf("cap 0 produced %+v", fused[0][1])
	}
	for r := range rows {
		perRow, err := m.GenerateRowCached(rows[r].EncOut, rows[r].Layout, caps[r])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused[r], perRow) {
			t.Fatalf("row %d: fused %v != per-row %v", r, fused[r], perRow)
		}
	}

	// Shape validation.
	if _, err := m.GenerateBatchCached(rows, [][]int{{1}}); err == nil {
		t.Fatal("mismatched cap rows must fail")
	}
	if _, err := m.GenerateBatchCached(rows, [][]int{{1}, {1}}); err == nil {
		t.Fatal("mismatched cap count within a row must fail")
	}
}

// Step must reject malformed input without corrupting state.
func TestBatchDecodeStepValidation(t *testing.T) {
	m := testModel(t)
	src := rng.New(45)
	row, layout := buildConcatRow([][]int{randTokens(src, 5)}, 8)
	st := m.NewBatchDecodeState([]BatchDecodeRow{{
		EncOut: m.EncodeRow(row, layout, nil, AttDense, true),
		Layout: layout,
	}})
	if _, err := st.Step([]int{1, 2}); err == nil {
		t.Fatal("wrong token count must fail")
	}
	if _, err := st.Step([]int{testVocab}); err == nil {
		t.Fatal("out-of-vocabulary token must fail")
	}
	if _, err := st.Step([]int{vocab.BosID}); err != nil {
		t.Fatal(err)
	}
}

// The batch-wide analogue of TestCachedDecodeStepZeroAllocs: a warm fused
// Step across multiple rows must not touch the heap.
func TestBatchDecodeStepZeroAllocs(t *testing.T) {
	serialKernels(t)
	m := testModel(t)
	src := rng.New(46)
	groups := [][][]int{
		{randTokens(src, 5), randTokens(src, 8)},
		{randTokens(src, 3), randTokens(src, 6), randTokens(src, 4)},
	}
	rows := make([]BatchDecodeRow, len(groups))
	for r, requests := range groups {
		row, layout := buildConcatRow(requests, 20)
		rows[r] = BatchDecodeRow{
			EncOut: m.EncodeRow(row, layout, nil, AttDense, true),
			Layout: layout,
		}
	}
	st := m.NewBatchDecodeState(rows)
	next := make([]int, st.Segments())
	for i := range next {
		next[i] = vocab.BosID
	}
	for warm := 0; warm < 3; warm++ { // BOS + two steady-state steps
		if _, err := st.Step(next); err != nil {
			t.Fatal(err)
		}
		for i := range next {
			next[i] = vocab.FirstWordID
		}
	}
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		_, err = st.Step(next)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm fused decode Step allocated %g times per run", allocs)
	}
}

// A fused Step with some segments finished must skip them (nil logits) while
// continuing the others, and the survivors' tokens must still match a
// per-row decode.
func TestBatchDecodePartialFinish(t *testing.T) {
	m := testModel(t)
	src := rng.New(47)
	row, layout := buildConcatRow([][]int{randTokens(src, 5), randTokens(src, 7)}, 16)
	enc := m.EncodeRow(row, layout, nil, AttDense, true)
	st := m.NewBatchDecodeState([]BatchDecodeRow{{EncOut: enc, Layout: layout}})
	st.MarkFinished(0)
	logits, err := st.Step([]int{vocab.BosID, vocab.BosID})
	if err != nil {
		t.Fatal(err)
	}
	if logits[0] != nil {
		t.Fatal("finished segment must yield nil logits")
	}
	if logits[1] == nil {
		t.Fatal("live segment must yield logits")
	}

	// Compare against a fresh state advancing only segment 1.
	ref := m.NewBatchDecodeState([]BatchDecodeRow{{EncOut: enc, Layout: layout}})
	ref.MarkFinished(0)
	refLogits, err := ref.Step([]int{vocab.BosID, vocab.BosID})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(logits[1], refLogits[1]) {
		t.Fatal("fused logits diverge from single-row state under partial finish")
	}
	if !st.AllFinished() {
		st.MarkFinished(1)
	}
	if !st.AllFinished() {
		t.Fatal("AllFinished false with every segment finished")
	}
}

// NewBatchDecodeState is NewBatchDecodeStateReserve with KV caches reserved
// for the model's MaxLen bound.
func (m *Model) NewBatchDecodeState(rows []BatchDecodeRow) *BatchDecodeState {
	return m.NewBatchDecodeStateReserve(rows, m.P.PosEnc.Rows)
}
