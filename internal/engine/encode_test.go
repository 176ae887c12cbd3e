package engine

import (
	"fmt"
	"math"
	"testing"

	"tcb/internal/batch"
	"tcb/internal/prefixcache"
	"tcb/internal/rng"
	"tcb/internal/tensor"
)

// encReq is one request of the encode tests: its full token sequence and how
// it presents its prefix (none, declared cold, or declared and resident).
type encReq struct {
	id        int64
	tokens    []int
	prefixLen int
	cachedLen int
}

func (r encReq) item() batch.Item {
	return batch.Item{ID: r.id, Len: len(r.tokens) - r.cachedLen, PrefixLen: r.prefixLen, CachedLen: r.cachedLen}
}

// encodeAlone returns the encoder rows of r served alone, packed the way
// RunSingle packs (one Concat row exactly its length) with its prefix
// declared but never served from the cache: prefix rows first, suffix rows
// after — the reference every batched encode must reproduce bit for bit.
func encodeAlone(t *testing.T, e *Engine, r encReq) *tensor.Matrix {
	t.Helper()
	r.cachedLen = 0
	p, err := e.Prepare(packOne(t, r), map[int64][]int{r.id: r.tokens})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	return e.encodeRows(p)[0].EncOut
}

// sameBits reports whether rows [lo, hi) of got equal want in every bit.
func sameBits(got *tensor.Matrix, lo, hi int, want *tensor.Matrix) error {
	if hi-lo != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d vs %dx%d", hi-lo, got.Cols, want.Rows, want.Cols)
	}
	diff := 0
	for r := 0; r < want.Rows; r++ {
		g, w := got.Row(lo+r), want.Row(r)
		for j := range w {
			if math.Float32bits(g[j]) != math.Float32bits(w[j]) {
				diff++
			}
		}
	}
	if diff != 0 {
		return fmt.Errorf("%d of %d floats differ (max |Δ| %g)", diff, want.Rows*want.Cols,
			got.Slice(lo, hi).MaxAbsDiff(want))
	}
	return nil
}

// §4.1's promise on the path that serves traffic, to the bit: wherever a
// request's encoder rows are produced — any offset of a Concat row, any
// place in a shared slot, seated at launch or admitted mid-flight, prefix
// cold, cached or absent — they are the rows the request gets alone.
func TestEncoderRowsBitwiseAlone(t *testing.T) {
	const rowLen, slotSize = 56, 28
	for trial := 0; trial < 8; trial++ {
		src := rng.New(uint64(4100 + trial))
		e := refillEngine(t, 2)
		e.PrefixCache = prefixcache.New(0, nil)

		// One resident family: a cold declared request served alone freezes
		// its prefix, which later requests hit.
		shared := randTokens(src, 2*src.IntRange(2, 5)+1)
		warm := encReq{id: 1, tokens: append(append([]int{}, shared...), randTokens(src, 3)...), prefixLen: len(shared)}
		if _, err := e.Run(packOne(t, warm), map[int64][]int{warm.id: warm.tokens}); err != nil {
			t.Fatal(err)
		}
		cachedEnc, _, ok := e.PrefixCache.Peek(warm.tokens, warm.prefixLen)
		if !ok {
			t.Fatal("serving a cold declared request did not freeze its prefix")
		}

		var reqs []encReq
		for i := 0; i < 18; i++ {
			r := encReq{id: int64(10 + i)}
			switch i % 3 {
			case 0: // undeclared
				r.tokens = randTokens(src, src.IntRange(3, 21))
			case 1: // cold: a prefix of its own
				r.prefixLen = src.IntRange(2, 9)
				r.tokens = randTokens(src, r.prefixLen+src.IntRange(1, 9))
			case 2: // hit on the resident family
				r.prefixLen, r.cachedLen = len(shared), len(shared)
				r.tokens = append(append([]int{}, shared...), randTokens(src, src.IntRange(1, 11))...)
			}
			reqs = append(reqs, r)
		}
		alone := make(map[int64]*tensor.Matrix)
		tokens := make(map[int64][]int)
		byID := make(map[int64]encReq)
		var items []batch.Item
		for _, r := range reqs {
			alone[r.id] = encodeAlone(t, e, r)
			tokens[r.id] = r.tokens
			byID[r.id] = r
			items = append(items, r.item())
			if r.cachedLen > 0 {
				if err := sameBits(cachedEnc, 0, r.cachedLen, alone[r.id].Slice(0, r.cachedLen)); err != nil {
					t.Fatalf("trial %d: cached prefix rows vs request %d's cold prefix: %v", trial, r.id, err)
				}
			}
		}
		// check compares rows [lo, hi) of enc with what request id holds
		// there: its resident rows, i.e. everything after the cached prefix.
		check := func(where string, enc *tensor.Matrix, lo, hi int, id int64) {
			t.Helper()
			want := alone[id]
			if err := sameBits(enc, lo, hi, want.Slice(byID[id].cachedLen, want.Rows)); err != nil {
				t.Fatalf("trial %d, %s, request %d at rows [%d,%d): %v", trial, where, id, lo, hi, err)
			}
		}

		for _, scheme := range []batch.Scheme{batch.Concat, batch.SlottedConcat} {
			var b *batch.Batch
			var rest []batch.Item
			if scheme == batch.Concat {
				b, rest = batch.PackConcat(items, 2, rowLen)
			} else {
				b, rest = batch.PackSlotted(items, 2, rowLen, slotSize)
			}
			if len(rest) == 0 || len(rest) == len(items) {
				t.Fatalf("trial %d: want some requests seated and some left to admit, %d of %d left", trial, len(rest), len(items))
			}
			p, err := e.Prepare(b, tokens)
			if err != nil {
				t.Fatal(err)
			}
			offAligned := 0
			for ri, dr := range e.encodeRows(p) {
				if dr.EncOut.Rows != p.rows[ri].Used() {
					t.Fatalf("%v row %d encoded at height %d, holds %d", scheme, ri, dr.EncOut.Rows, p.rows[ri].Used())
				}
				for i, seg := range dr.Layout.Segments {
					check(scheme.String()+" launch row", dr.EncOut, seg.Start, seg.End(), p.rows[ri].Items[i].ID)
					if seg.Start%4 != 0 {
						offAligned++
					}
				}
			}
			p.Release()
			if offAligned < 3 {
				t.Fatalf("trial %d: only %d segments start off a multiple of 4; the layout is not exercising the grouping", trial, offAligned)
			}
			// The requests that did not fit arrive as one admission round.
			var seated []seat
			for _, it := range rest {
				r := byID[it.ID]
				seated = append(seated, seat{adm: Admission{ID: r.id, Tokens: r.tokens, PrefixLen: r.prefixLen, CachedLen: r.cachedLen}})
			}
			ws := tensor.NewWorkspace()
			e.encodeAdmissions(seated, ws)
			ws.Close()
			for _, s := range seated {
				check(scheme.String()+" admission", s.enc, 0, s.enc.Rows, s.adm.ID)
			}
		}
	}
}

func packOne(t *testing.T, r encReq) *batch.Batch {
	t.Helper()
	b, rest := batch.PackConcat([]batch.Item{r.item()}, 1, len(r.tokens))
	if len(rest) != 0 {
		t.Fatal("single request did not pack")
	}
	return b
}

// The engine's work is bounded by what its rows hold, not by their capacity:
// Report counts the encoder rows and attention scores executed, and a TCB
// row costs its contents — block by block — while the padding baselines
// still pay for PadTo.
func TestEncodeWorkBound(t *testing.T) {
	src := rng.New(88)
	sq := func(ns ...int) (sum, sumSq int64) {
		for _, n := range ns {
			sum += int64(n)
			sumSq += int64(n * n)
		}
		return
	}
	run := func(e *Engine, b *batch.Batch, tokens map[int64][]int, hook RefillHook) *Report {
		t.Helper()
		p, err := e.Prepare(b, tokens)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		rep, err := e.RunPreparedRefill(p, hook)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := func(name string, rep *Report, tok, scores int64) {
		t.Helper()
		if rep.EncodedTokens != tok || rep.EncodedScores != scores {
			t.Fatalf("%s: encoded %d tokens / %d scores, want %d / %d", name, rep.EncodedTokens, rep.EncodedScores, tok, scores)
		}
	}

	e := refillEngine(t, 2)

	// One request in a 128-wide row.
	tokens, items := makeRequests(src, 19)
	b, _ := batch.PackConcat(items, 1, 128)
	if b.TotalTokens() != 128 {
		t.Fatalf("capacity %d, want 128", b.TotalTokens())
	}
	want("one request, 128-wide row", run(e, b, tokens, nil), 19, 19*19)

	// A full concat row: Σ len rows, Σ len² scores.
	lens := []int{20, 31, 7, 22, 20, 28}
	tokens, items = makeRequests(src, lens...)
	b, rest := batch.PackConcat(items, 1, 128)
	if len(rest) != 0 || (b.Rows[0].PadTo-b.Rows[0].Used()) != 0 {
		t.Fatal("row should be exactly full")
	}
	n, n2 := sq(lens...)
	want("full concat row", run(e, b, tokens, nil), n, n2)

	// Slotted: every slot attends over what it holds.
	lens = []int{10, 9, 14, 3, 12, 5}
	tokens, items = makeRequests(src, lens...)
	b, rest = batch.PackSlotted(items, 1, 96, 24)
	if len(rest) != 0 {
		t.Fatal("slotted pack failed")
	}
	var slotUsed []int
	for _, g := range b.SlotGroups(b.Rows[0]) {
		u := 0
		for _, it := range g {
			u += it.Len
		}
		slotUsed = append(slotUsed, u)
	}
	if len(slotUsed) >= len(lens) {
		t.Fatalf("want shared slots, got %v", slotUsed)
	}
	n, n2 = sq(slotUsed...)
	want("slotted row", run(e, b, tokens, nil), n, n2)

	// The baselines keep their padding: that is their definition.
	lens = []int{5, 17, 9}
	tokens, items = makeRequests(src, lens...)
	nb, rest := batch.PackNaive(items, 4, 128)
	if len(rest) != 0 {
		t.Fatal("naive pack failed")
	}
	for _, scheme := range []batch.Scheme{batch.Naive, batch.Turbo} {
		b := &batch.Batch{Scheme: scheme, Rows: nb.Rows} // a Turbo group is laid out like a Naive batch
		want(scheme.String(), run(e, b, tokens, nil), 3*17, 3*17*17)
	}

	// Slotting never saves work on this engine: the same items in the same
	// rows and order stage the same Σlen rows as Slotted and as Concat, and
	// a slot scores one block over every request it holds where Concat
	// scores one block per request, so Slotted scores at least as much.
	for seed := uint64(1); seed <= 4; seed++ {
		rs := rng.New(seed)
		lens := make([]int, 4+rs.Intn(12))
		slot := 1
		for i := range lens {
			lens[i] = rs.IntRange(1, 24)
			slot = max(slot, lens[i])
		}
		tokens, items := makeRequests(rs, lens...)
		slotted, rest := batch.PackSlotted(items, len(items), 4*slot, slot)
		if len(rest) != 0 {
			t.Fatalf("seed %d: slotted pack left %d items", seed, len(rest))
		}
		concat := &batch.Batch{Scheme: batch.Concat, Rows: slotted.Rows}
		sr, cr := run(e, slotted, tokens, nil), run(e, concat, tokens, nil)
		if sr.EncodedTokens != cr.EncodedTokens || sr.EncodedScores < cr.EncodedScores {
			t.Fatalf("seed %d, lens %v: slotted encoded %d tokens / %d scores, concat %d / %d; want equal tokens and slotted scores >= concat",
				seed, lens, sr.EncodedTokens, sr.EncodedScores, cr.EncodedTokens, cr.EncodedScores)
		}
	}

	// Mid-flight admissions are charged like launch rows. A cold declared
	// prefix is two blocks — p² + s², never (p+s)² — and the next request of
	// the family, a hit, encodes its suffix only.
	const pfx, sfx, sfx2 = 13, 8, 5
	e.PrefixCache = prefixcache.New(0, nil)
	tokens, items = makeRequests(src, 30)
	b, _ = batch.PackConcat(items, 1, 128)
	cold := randTokens(src, pfx+sfx)
	hit := append(append([]int{}, cold[:pfx]...), randTokens(src, sfx2)...)
	for _, c := range []struct {
		name        string
		adm         Admission
		tok, scores int64
	}{
		{"cold-prefix admission", Admission{ID: 50, Tokens: cold, PrefixLen: pfx}, 30 + pfx + sfx, 30*30 + pfx*pfx + sfx*sfx},
		{"prefix-hit admission", Admission{ID: 51, Tokens: hit, PrefixLen: pfx, CachedLen: pfx}, 30 + sfx2, 30*30 + sfx2*sfx2},
	} {
		hook := &scriptHook{queue: []Admission{c.adm}}
		rep := run(e, b, tokens, hook)
		if rep.Refill.Admitted != 1 || len(hook.rejected) != 0 {
			t.Fatalf("%s: admitted %d, rejected %d", c.name, rep.Refill.Admitted, len(hook.rejected))
		}
		want(c.name, rep, c.tok, c.scores)
	}
}
