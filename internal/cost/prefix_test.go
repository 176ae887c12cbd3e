package cost

import (
	"testing"

	"tcb/internal/batch"
	"tcb/internal/model"
)

func TestPrefixSavings(t *testing.T) {
	p := DefaultParams(model.TestConfig(100))
	if s := p.PrefixSavings(0); s != 0 {
		t.Fatalf("no cached tokens must save nothing, got %g", s)
	}
	if s := p.PrefixSavings(-3); s != 0 {
		t.Fatalf("negative cached length must save nothing, got %g", s)
	}
	want := 16*p.PerTokenSeconds + 256*p.PerScoreSeconds
	if got := p.PrefixSavings(16); got != want {
		t.Fatalf("PrefixSavings(16) = %g, want %g", got, want)
	}
	if p.PrefixSavings(32) <= p.PrefixSavings(16) {
		t.Fatal("savings must grow with cached length")
	}
}

func TestBatchPrefixSavings(t *testing.T) {
	p := Params{PerTokenSeconds: 1e-4, PerScoreSeconds: 1e-7}
	b := &batch.Batch{Scheme: batch.Concat, Rows: []batch.Row{{
		PadTo: 64,
		Items: []batch.Item{
			{ID: 1, Len: 10, PrefixLen: 8, CachedLen: 8}, // hit: suffix resident
			{ID: 2, Len: 30, PrefixLen: 8, CachedLen: 0}, // cold declared prefix
			{ID: 3, Len: 12}, // no prefix
		},
	}}}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	want := p.PrefixSavings(8)
	if got := p.BatchPrefixSavings(b); got != want {
		t.Fatalf("BatchPrefixSavings = %g, want %g (only the hit item saves)", got, want)
	}
}
