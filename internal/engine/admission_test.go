package engine

import (
	"slices"
	"testing"

	"tcb/internal/batch"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/rng"
)

// runRound serves adms as one admission round of a launch: the launch holds a
// single undeclared request exactly as long as the round's tokens, so the
// step it retires frees room for every admission at once. It returns the
// launch's report, with the launch request's id 1 and its length.
func runRound(t *testing.T, e *Engine, src *rng.Source, adms []Admission) (rep *Report, launchLen int) {
	t.Helper()
	for _, a := range adms {
		launchLen += len(a.Tokens)
	}
	tokens := map[int64][]int{1: randTokens(src, launchLen)}
	b, rest := batch.PackConcat([]batch.Item{{ID: 1, Len: launchLen}}, 1, launchLen)
	if len(rest) != 0 {
		t.Fatal("launch did not pack")
	}
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	hook := &scriptHook{queue: slices.Clone(adms)}
	if rep, err = e.RunPreparedRefill(p, hook); err != nil {
		t.Fatal(err)
	}
	if rep.Refill.Admitted != len(adms) || len(hook.rejected) != 0 {
		t.Fatalf("admitted %d of %d, rejected %d", rep.Refill.Admitted, len(adms), len(hook.rejected))
	}
	return rep, launchLen
}

// checkAlone compares every admitted result with the request served alone by
// ref — same weights, no prefix cache — with the same prefix declaration (a
// declared prefix is its own encoder segment, so that is the reference; an
// undeclared admission is RunSingle's request).
func checkAlone(t *testing.T, ref *Engine, rep *Report, adms []Admission) {
	t.Helper()
	byID := make(map[int64]Result, len(rep.Results))
	for _, r := range rep.Results {
		byID[r.ID] = r
	}
	for _, a := range adms {
		alone, err := ref.Run(packOne(t, encReq{id: a.ID, tokens: a.Tokens, prefixLen: a.PrefixLen}), map[int64][]int{a.ID: a.Tokens})
		if err != nil {
			t.Fatal(err)
		}
		got, want := byID[a.ID], alone.Results[0]
		if !equalInts(got.Output, want.Output) || got.Steps != want.Steps {
			t.Fatalf("admission %d (prefix %d, cached %d): %v/%d vs alone %v/%d",
				a.ID, a.PrefixLen, a.CachedLen, got.Output, got.Steps, want.Output, want.Steps)
		}
	}
}

// warmPrefix makes prefix resident the way serving does: a cold declared
// request carrying it is served, and its launch row freezes the prefix.
func warmPrefix(t *testing.T, e *Engine, src *rng.Source, prefix []int) {
	t.Helper()
	r := encReq{id: 900, tokens: append(slices.Clone(prefix), randTokens(src, 2)...), prefixLen: len(prefix)}
	if _, err := e.Run(packOne(t, r), map[int64][]int{r.id: r.tokens}); err != nil {
		t.Fatal(err)
	}
	if !e.PrefixCache.Contains(prefix, len(prefix)) {
		t.Fatal("serving a cold declared request did not freeze its prefix")
	}
}

// An admission round encodes each shared prefix once: three cold admissions
// declaring one non-resident prefix encode it once between them (the first
// encodes and freezes it, the others inherit its K/V), a cold admission whose
// prefix became resident after its Submit inherits the resident entry, and
// a hit and an undeclared request ride along as before. Outputs match the
// requests served alone, the cache gains exactly the one prefix, and the
// device ledger balances.
func TestAdmissionRoundEncodesEachPrefixOnce(t *testing.T) {
	src := rng.New(34)
	e := refillEngine(t, 4)
	e.Mem = gpu.NewMemoryManager(0)
	e.PrefixCache = prefixcache.New(0, e.Mem)

	cold := randTokens(src, 9)     // declared by three admissions, not resident
	resident := randTokens(src, 7) // resident before the round
	warmPrefix(t, e, src, resident)
	with := func(prefix []int, n int) []int { return append(slices.Clone(prefix), randTokens(src, n)...) }

	adms := []Admission{
		{ID: 10, Tokens: with(cold, 3), PrefixLen: len(cold)},
		{ID: 11, Tokens: with(resident, 4), PrefixLen: len(resident), CachedLen: len(resident)}, // hit
		{ID: 12, Tokens: with(cold, 5), PrefixLen: len(cold)},
		{ID: 13, Tokens: randTokens(src, 6)},                          // undeclared
		{ID: 14, Tokens: with(resident, 2), PrefixLen: len(resident)}, // cold at Submit, resident now
		{ID: 15, Tokens: with(cold, 1), PrefixLen: len(cold)},
	}
	before := e.PrefixCache.Stats()
	rep, launchLen := runRound(t, e, src, adms)

	// The launch row, the cold prefix once, and every admission's rows after
	// the prefix it declares (all of an undeclared one).
	wantTok, wantScores := int64(launchLen+len(cold)), int64(launchLen*launchLen+len(cold)*len(cold))
	for _, a := range adms {
		s := int64(len(a.Tokens) - a.PrefixLen)
		wantTok += s
		wantScores += s * s
	}
	if rep.EncodedTokens != wantTok || rep.EncodedScores != wantScores {
		t.Fatalf("encoded %d tokens / %d scores, want %d / %d", rep.EncodedTokens, rep.EncodedScores, wantTok, wantScores)
	}
	if rep.PrefixShared != 2 || rep.PrefixSharedTokens != int64(2*len(cold)) ||
		rep.PrefixLateHits != 1 || rep.PrefixLateTokens != int64(len(resident)) {
		t.Fatalf("resolved %d shared (%d tokens) and %d late hits (%d tokens), want 2 (%d) and 1 (%d)",
			rep.PrefixShared, rep.PrefixSharedTokens, rep.PrefixLateHits, rep.PrefixLateTokens, 2*len(cold), len(resident))
	}
	if got := e.PrefixCache.Stats().Inserts - before.Inserts; got != 1 {
		t.Fatalf("the round inserted %d prefixes, want 1", got)
	}
	if !e.PrefixCache.Contains(cold, len(cold)) {
		t.Fatal("the round's shared prefix was not frozen")
	}
	checkAlone(t, refillEngine(t, 4), rep, adms)

	e.PrefixCache.Clear()
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("device ledger after Release and Clear: used=%d outstanding=%d", e.Mem.Used(), e.Mem.Outstanding())
	}
}

// FuzzAdmissionRound draws one admission round of 2–8 requests over a pool
// of 1–3 prefixes — each request undeclared, cold or (on a resident prefix) a
// hit — and checks that every output matches the request served alone and
// that the round encodes each distinct non-resident declared prefix once,
// plus every request's rows after its prefix.
func FuzzAdmissionRound(f *testing.F) {
	f.Add(uint64(1), []byte{0x11, 3, 0x12, 4, 0x02, 5, 0x21, 2})
	f.Add(uint64(2), []byte{0x01, 1, 0x01, 2, 0x01, 3, 0x01, 4, 0x01, 5, 0x01, 6})
	f.Add(uint64(7), []byte{0x22, 2, 0x10, 8, 0x01, 1})
	cfg := model.Config{
		VocabSize: testVocab, DModel: 16, NumHeads: 2, DFF: 32,
		EncLayers: 1, DecLayers: 1, MaxLen: 160, Eps: 1e-5,
	}
	m := model.New(cfg, 34)
	f.Fuzz(func(t *testing.T, seed uint64, spec []byte) {
		n := min(len(spec)/2, 8)
		if n < 2 {
			t.Skip("a round needs two admissions")
		}
		src := rng.New(seed)
		e := New(m, 3)
		e.OutputCap = func(inputLen int) int { return inputLen }
		e.PrefixCache = prefixcache.New(0, nil)
		pool := make([][]int, 1+int(seed%3))
		for i := range pool {
			pool[i] = randTokens(src, src.IntRange(1, 8))
			if src.Intn(2) == 0 {
				warmPrefix(t, e, src, pool[i])
			}
		}

		// Spec byte 2i: low nibble picks the kind (0 undeclared, 1 cold,
		// 2 hit — cold when its prefix is not resident), high nibble the
		// prefix; byte 2i+1 the suffix length.
		var adms []Admission
		var wantTok int64
		var encoded [][]int // non-resident prefixes some admission encodes
		for i := 0; i < n; i++ {
			kind, prefix := spec[2*i]&0xf%3, pool[int(spec[2*i]>>4)%len(pool)]
			a := Admission{ID: int64(10 + i)}
			suffix := randTokens(src, 1+int(spec[2*i+1]%8))
			if kind == 0 {
				a.Tokens = suffix
			} else {
				a.Tokens = append(slices.Clone(prefix), suffix...)
				a.PrefixLen = len(prefix)
				switch resident := e.PrefixCache.Contains(prefix, len(prefix)); {
				case resident && kind == 2:
					a.CachedLen = len(prefix)
				case !resident && !slices.ContainsFunc(encoded, func(p []int) bool { return slices.Equal(p, prefix) }):
					encoded = append(encoded, prefix)
					wantTok += int64(len(prefix))
				}
			}
			wantTok += int64(len(suffix))
			adms = append(adms, a)
		}
		rep, launchLen := runRound(t, e, src, adms)
		if got := rep.EncodedTokens - int64(launchLen); got != wantTok {
			t.Fatalf("round encoded %d tokens, want %d (%d distinct non-resident prefixes + suffixes)", got, wantTok, len(encoded))
		}
		ref := New(m, 3)
		ref.OutputCap = e.OutputCap
		checkAlone(t, ref, rep, adms)
	})
}
