package model

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"tcb/internal/rng"
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// The tentpole correctness claim of mid-flight removal: after RemoveSegment,
// the survivors' logits are bitwise identical to a state that kept the
// retired segment around as a finished placeholder — removal changes GEMM
// height only, never any survivor's numbers.
func TestRemoveSegmentBitwiseIdentical(t *testing.T) {
	m := testModel(t)
	src := rng.New(60)
	row, layout := buildConcatRow([][]int{
		randTokens(src, 5), randTokens(src, 8), randTokens(src, 4),
	}, 20)
	enc := m.EncodeRow(row, layout, nil, AttDense, true)
	mk := func() *BatchDecodeState {
		return m.NewBatchDecodeStateReserve([]BatchDecodeRow{{EncOut: enc, Layout: layout}}, 8)
	}
	kept, removed := mk(), mk()
	defer kept.Close()
	defer removed.Close()

	// Advance both states identically for two steps.
	toks := []int{vocab.BosID, vocab.BosID, vocab.BosID}
	for step := 0; step < 2; step++ {
		if _, err := kept.Step(toks); err != nil {
			t.Fatal(err)
		}
		if _, err := removed.Step(toks); err != nil {
			t.Fatal(err)
		}
		toks = []int{vocab.FirstWordID, vocab.FirstWordID + 1, vocab.FirstWordID + 2}
	}

	// Retire the middle segment: one state masks it, the other removes it.
	kept.MarkFinished(1)
	removed.RemoveSegment(1)
	if removed.Segments() != 2 {
		t.Fatalf("Segments() = %d after removal, want 2", removed.Segments())
	}

	for step := 0; step < 3; step++ {
		lk, err := kept.Step([]int{vocab.FirstWordID, 0, vocab.FirstWordID + 3})
		if err != nil {
			t.Fatal(err)
		}
		lr, err := removed.Step([]int{vocab.FirstWordID, vocab.FirstWordID + 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lk[0], lr[0]) || !reflect.DeepEqual(lk[2], lr[1]) {
			t.Fatalf("step %d: survivor logits diverge after RemoveSegment", step)
		}
	}
}

// InsertSegment must behave exactly like a segment that was in the batch
// from construction: the admitted segment's logits match a fresh
// single-segment state bitwise, and the incumbents never notice.
func TestInsertSegmentMatchesFreshDecode(t *testing.T) {
	m := testModel(t)
	src := rng.New(61)
	row, layout := buildConcatRow([][]int{randTokens(src, 6)}, 12)
	enc := m.EncodeRow(row, layout, nil, AttDense, true)
	st := m.NewBatchDecodeStateReserve([]BatchDecodeRow{{EncOut: enc, Layout: layout}}, 8)
	defer st.Close()
	solo := m.NewBatchDecodeStateReserve([]BatchDecodeRow{{EncOut: enc, Layout: layout}}, 8)
	defer solo.Close()

	// The incumbent decodes alone for two steps.
	for _, tok := range []int{vocab.BosID, vocab.FirstWordID} {
		if _, err := st.Step([]int{tok}); err != nil {
			t.Fatal(err)
		}
		if _, err := solo.Step([]int{tok}); err != nil {
			t.Fatal(err)
		}
	}

	// Admit a new request mid-flight; reference is a fresh state of its own.
	newToks := randTokens(src, 9)
	newRow, newLayout := buildConcatRow([][]int{newToks}, len(newToks))
	newEnc := m.EncodeRow(newRow, newLayout, nil, AttDense, true)
	idx, err := st.InsertSegment(newEnc)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || st.Segments() != 2 {
		t.Fatalf("InsertSegment -> idx %d, Segments %d; want 1, 2", idx, st.Segments())
	}
	fresh := m.NewBatchDecodeStateReserve([]BatchDecodeRow{{EncOut: newEnc, Layout: newLayout}}, 8)
	defer fresh.Close()

	toks := []int{vocab.FirstWordID + 1, vocab.BosID}
	for step := 0; step < 3; step++ {
		lm, err := st.Step(toks)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := solo.Step(toks[:1])
		if err != nil {
			t.Fatal(err)
		}
		lf, err := fresh.Step(toks[1:])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lm[0], ls[0]) {
			t.Fatalf("step %d: incumbent logits changed after InsertSegment", step)
		}
		if !reflect.DeepEqual(lm[1], lf[0]) {
			t.Fatalf("step %d: admitted segment diverges from fresh decode", step)
		}
		toks = []int{vocab.FirstWordID + 2, vocab.FirstWordID + 4}
	}

	// Validation: empty, wrong width, and over-length encoder outputs.
	if _, err := st.InsertSegment(newEnc.Slice(0, 0)); err == nil {
		t.Fatal("empty encoder output must fail")
	}
	bad := newEnc.Slice(0, 2)
	bad.Cols++
	if _, err := st.InsertSegment(bad); err == nil {
		t.Fatal("wrong encoder width must fail")
	}
}

// A warm remove+insert cycle — retire a segment, admit a like-sized one —
// must recycle every cache buffer through the state's workspace pool and
// touch the heap zero times.
func TestRemoveInsertZeroAllocs(t *testing.T) {
	serialKernels(t)
	m := testModel(t)
	src := rng.New(62)
	row, layout := buildConcatRow([][]int{randTokens(src, 5), randTokens(src, 7)}, 16)
	enc := m.EncodeRow(row, layout, nil, AttDense, true)
	st := m.NewBatchDecodeStateReserve([]BatchDecodeRow{{EncOut: enc, Layout: layout}}, 8)
	defer st.Close()
	if _, err := st.Step([]int{vocab.BosID, vocab.BosID}); err != nil {
		t.Fatal(err)
	}

	newToks := randTokens(src, 6)
	newRow, newLayout := buildConcatRow([][]int{newToks}, len(newToks))
	newEnc := m.EncodeRow(newRow, newLayout, nil, AttDense, true)

	// Warm-up cycle: the first insertion stocks the pool with the new
	// segment's cross-attention buffers.
	cycle := func() error {
		st.RemoveSegment(st.Segments() - 1)
		_, err := st.InsertSegment(newEnc)
		return err
	}
	if err := cycle(); err != nil {
		t.Fatal(err)
	}
	if err := cycle(); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		err = cycle()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm remove+insert cycle allocated %g times per run", allocs)
	}

	// The recycled state must still decode: one full step over both segments.
	if _, err := st.Step([]int{vocab.FirstWordID, vocab.BosID}); err != nil {
		t.Fatal(err)
	}
}

// RemoveSegment out of range must panic rather than corrupt the tables.
func TestRemoveSegmentBounds(t *testing.T) {
	m := testModel(t)
	src := rng.New(63)
	row, layout := buildConcatRow([][]int{randTokens(src, 4)}, 8)
	st := m.NewBatchDecodeState([]BatchDecodeRow{{
		EncOut: m.EncodeRow(row, layout, nil, AttDense, true),
		Layout: layout,
	}})
	defer st.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveSegment(1) of 1 segment must panic")
		}
	}()
	st.RemoveSegment(1)
}

// Caches seated at construction must be as recyclable as inserted ones: a
// launch that retires every segment hands all its self-attention buffers back
// through Close, and an identical second launch builds its caches from them —
// none of the KV bytes are allocated again — and decodes the same tokens.
func TestLaunchSeatedCachesRecycleAcrossLaunches(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	serialKernels(t) // one P: Close and the next NewWorkspace meet in one sync.Pool shard
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := testModel(t)
	src := rng.New(63)
	row, layout := buildConcatRow([][]int{
		randTokens(src, 5), randTokens(src, 8), randTokens(src, 4),
	}, 20)
	enc := m.EncodeRow(row, layout, nil, AttDense, true)
	const reserve, steps = 48, 6 // 48 × d_model floats: not a power of two
	kvBytes := uint64(len(m.P.Decoder) * 2 * len(layout.Segments) * reserve * m.Cfg.DModel * 4)

	launch := func() (built uint64, out [][]int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := m.NewBatchDecodeStateReserve([]BatchDecodeRow{{EncOut: enc, Layout: layout}}, reserve)
		runtime.ReadMemStats(&after)
		toks := []int{vocab.BosID, vocab.BosID, vocab.BosID}
		for step := 0; step < steps; step++ {
			logits, err := st.Step(toks)
			if err != nil {
				t.Fatal(err)
			}
			toks = make([]int, len(logits))
			for i, l := range logits {
				toks[i] = tensor.ArgmaxRows(tensor.FromSlice(1, len(l), l))[0]
			}
			out = append(out, toks)
		}
		for st.Segments() > 0 {
			st.RemoveSegment(st.Segments() - 1)
		}
		st.Close()
		return after.TotalAlloc - before.TotalAlloc, out
	}
	_, want := launch()
	built, got := launch()
	// Everything else a state builds (step buffers, tables) is a fraction of
	// its self-attention caches, so staying under their size means none of
	// them was allocated again.
	if built >= kvBytes {
		t.Fatalf("second launch allocated %d B building its state: its %d B of self-attention caches were not recycled", built, kvBytes)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second launch decoded %v, first %v", got, want)
	}
}
