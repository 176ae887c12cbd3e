package engine

import (
	"errors"
	"testing"

	"tcb/internal/batch"
	"tcb/internal/rng"
	"tcb/internal/tensor"
)

// A token id outside the vocabulary is refused at Prepare with an error that
// names the request carrying it — before anything reaches Params.Embed,
// which would panic inside a row goroutine.
func TestPrepareRejectsOutOfVocabularyTokens(t *testing.T) {
	e := testEngine(t, 3)
	for _, bad := range []int{-1, testVocab, 1 << 20} {
		tokens, items := makeRequests(rng.New(80), 4, 5, 3)
		tokens[2][1] = bad
		b, _ := batch.PackConcat(items, 3, 8)
		p, err := e.Prepare(b, tokens)
		var te *TokenError
		if !errors.As(err, &te) || te.ID != 2 || te.Token != bad || te.Vocab != testVocab {
			p.Release()
			t.Fatalf("token %d: Prepare err = %v, want a TokenError naming request 2", bad, err)
		}
	}
}

// tokenHook offers its admissions once and keeps every rejection's error.
type tokenHook struct {
	noRefill
	admissions []Admission
	rejected   map[int64]error
}

func (h *tokenHook) Refill(int) []Admission {
	out := h.admissions
	h.admissions = nil
	return out
}

func (h *tokenHook) Reject(adm Admission, err error) { h.rejected[adm.ID] = err }

// Refill admission checks tokens too: the bad admission is handed back with
// a TokenError, its good neighbour is seated, and the launch carries on.
func TestAdmissionRejectsOutOfVocabularyTokens(t *testing.T) {
	src := rng.New(81)
	tokens, items := makeRequests(src, 2, 3)
	b, _ := batch.PackConcat(items, 2, 8)
	e := refillEngine(t, 4)
	p, err := e.Prepare(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	badTokens := randTokens(src, 2)
	badTokens[0] = 1 << 20
	hook := &tokenHook{
		admissions: []Admission{{ID: 50, Tokens: badTokens}, {ID: 51, Tokens: randTokens(src, 2)}},
		rejected:   map[int64]error{},
	}
	rep, err := e.RunPreparedRefill(p, hook)
	if err != nil {
		t.Fatal(err)
	}
	var te *TokenError
	if len(hook.rejected) != 1 || !errors.As(hook.rejected[50], &te) || te.ID != 50 {
		t.Fatalf("rejections %v, want one TokenError for admission 50", hook.rejected)
	}
	if rep.Refill.Admitted != 1 || len(rep.Results) != len(items)+1 {
		t.Fatalf("admitted %d, %d results; want the good admission seated and served", rep.Refill.Admitted, len(rep.Results))
	}
}

// A panic in one of fanOut's job goroutines is re-raised on the caller's
// goroutine after every job has returned, where a recover — the serving
// layer's supervisor — can see it.
func TestFanOutReraisesJobPanic(t *testing.T) {
	ws := tensor.NewWorkspace()
	defer ws.Close()
	ran := make([]bool, 3)
	got := func() (v any) {
		defer func() { v = recover() }()
		fanOut(len(ran), ws, func(i int, _ *tensor.Workspace) {
			ran[i] = true
			if i == 1 {
				panic("row 1 exploded")
			}
		})
		return nil
	}()
	if got != "row 1 exploded" {
		t.Fatalf("recovered %v, want the job's panic", got)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("job %d never ran", i)
		}
	}
}
