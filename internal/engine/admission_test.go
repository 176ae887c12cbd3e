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

// runRound serves launch as the items of a Concat launch — its step-0 round —
// and adms as one admission round of it. The launch also holds a filler: an
// undeclared request exactly as long as the admissions' tokens (at least
// one), so the step it retires frees room for every admission at once. The
// filler opens row 0; the launch items fill what is left of it, then row 1.
// It returns the launch's report, with the filler's id 1 and its length.
func runRound(t *testing.T, e *Engine, src *rng.Source, launch, adms []Admission) (rep *Report, launchLen int) {
	t.Helper()
	for _, a := range adms {
		launchLen += len(a.Tokens)
	}
	launchLen = max(launchLen, 1)
	tokens := map[int64][]int{1: randTokens(src, launchLen)}
	items := []batch.Item{{ID: 1, Len: launchLen}}
	seatedLen := 0
	for _, a := range launch {
		tokens[a.ID] = a.Tokens
		items = append(items, batch.Item{ID: a.ID, Len: a.Resident(), PrefixLen: a.PrefixLen, CachedLen: a.CachedLen})
		seatedLen += a.Resident()
	}
	b, rest := batch.PackConcat(items, 2, max(launchLen, seatedLen))
	if len(rest) != 0 || (len(launch) > 0 && len(b.Rows) != 2) {
		t.Fatalf("launch packed into %d rows, %d items left", len(b.Rows), len(rest))
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
// request carrying it is served, and its launch round freezes the prefix.
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
// a hit and an undeclared request ride along as before. A launch's items are
// its step-0 round and resolve the same way: three cold items declaring one
// non-resident prefix across two rows, and one whose prefix is resident.
// Outputs match the requests served alone, the cache gains exactly the one
// prefix per round, and the device ledger balances.
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
	launchCold := randTokens(src, 8) // declared by three launch items, not resident
	launch := []Admission{
		{ID: 20, Tokens: with(launchCold, 3), PrefixLen: len(launchCold)},
		{ID: 21, Tokens: with(launchCold, 4), PrefixLen: len(launchCold)},
		{ID: 22, Tokens: with(resident, 5), PrefixLen: len(resident)}, // cold at Submit, resident now
		{ID: 23, Tokens: with(launchCold, 2), PrefixLen: len(launchCold)},
	}
	for _, c := range []struct {
		name         string
		launch, adms []Admission
		cold         []int
	}{
		{name: "admission round", adms: adms, cold: cold},
		{name: "launch round", launch: launch, cold: launchCold},
	} {
		before := e.PrefixCache.Stats()
		rep, launchLen := runRound(t, e, src, c.launch, c.adms)

		// The filler, the cold prefix once, and every seat's rows after the
		// prefix it declares (all of an undeclared one).
		wantTok, wantScores := int64(launchLen+len(c.cold)), int64(launchLen*launchLen+len(c.cold)*len(c.cold))
		for _, a := range append(slices.Clone(c.launch), c.adms...) {
			s := int64(len(a.Tokens) - a.PrefixLen)
			wantTok += s
			wantScores += s * s
		}
		if rep.EncodedTokens != wantTok || rep.EncodedScores != wantScores {
			t.Fatalf("%s: encoded %d tokens / %d scores, want %d / %d", c.name, rep.EncodedTokens, rep.EncodedScores, wantTok, wantScores)
		}
		if rep.PrefixShared != 2 || rep.PrefixSharedTokens != int64(2*len(c.cold)) ||
			rep.PrefixLateHits != 1 || rep.PrefixLateTokens != int64(len(resident)) {
			t.Fatalf("%s: resolved %d shared (%d tokens) and %d late hits (%d tokens), want 2 (%d) and 1 (%d)", c.name,
				rep.PrefixShared, rep.PrefixSharedTokens, rep.PrefixLateHits, rep.PrefixLateTokens, 2*len(c.cold), len(resident))
		}
		if got := e.PrefixCache.Stats().Inserts - before.Inserts; got != 1 {
			t.Fatalf("%s inserted %d prefixes, want 1", c.name, got)
		}
		if !e.PrefixCache.Contains(c.cold, len(c.cold)) {
			t.Fatalf("%s: the shared prefix was not frozen", c.name)
		}
		checkAlone(t, refillEngine(t, 4), rep, append(slices.Clone(c.launch), c.adms...))
	}

	e.PrefixCache.Clear()
	if e.Mem.Used() != 0 || e.Mem.Outstanding() != 0 {
		t.Fatalf("device ledger after Release and Clear: used=%d outstanding=%d", e.Mem.Used(), e.Mem.Outstanding())
	}
}

// FuzzAdmissionRound draws 2–8 requests over a pool of 1–3 prefixes — each
// request undeclared, cold or (on a resident prefix) a hit, and seated as a
// launch item or admitted in one round after — and checks that every output
// matches the request served alone and that the launch and its round encode
// each distinct non-resident declared prefix once between them, plus every
// request's rows after its prefix.
func FuzzAdmissionRound(f *testing.F) {
	f.Add(uint64(1), []byte{0x11, 3, 0x12, 4, 0x02, 5, 0x21, 2})
	f.Add(uint64(2), []byte{0x01, 1, 0x01, 2, 0x01, 3, 0x01, 4, 0x01, 5, 0x01, 6})
	f.Add(uint64(7), []byte{0x22, 2, 0x10, 8, 0x01, 1})
	f.Add(uint64(4), []byte{0x11, 0x83, 0x12, 4, 0x01, 0x85, 0x11, 2, 0x22, 0x81})
	f.Add(uint64(5), []byte{0x01, 0x82, 0x01, 0x83, 0x00, 0x84})
	cfg := model.Config{
		VocabSize: testVocab, DModel: 16, NumHeads: 2, DFF: 32,
		EncLayers: 1, DecLayers: 1, MaxLen: 160, Eps: 1e-5,
	}
	m := model.New(cfg, 34)
	f.Fuzz(func(t *testing.T, seed uint64, spec []byte) {
		n := min(len(spec)/2, 8)
		if n < 2 {
			t.Skip("a round needs two requests")
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
		// prefix; byte 2i+1 the suffix length, its top bit a launch item.
		var launch, adms []Admission
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
			if spec[2*i+1]&0x80 != 0 {
				launch = append(launch, a)
			} else {
				adms = append(adms, a)
			}
		}
		rep, launchLen := runRound(t, e, src, launch, adms)
		if got := rep.EncodedTokens - int64(launchLen); got != wantTok {
			t.Fatalf("round encoded %d tokens, want %d (%d distinct non-resident prefixes + suffixes)", got, wantTok, len(encoded))
		}
		ref := New(m, 3)
		ref.OutputCap = e.OutputCap
		checkAlone(t, ref, rep, append(launch, adms...))
	})
}
