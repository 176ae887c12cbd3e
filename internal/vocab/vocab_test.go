package vocab

import (
	"testing"
	"testing/quick"
)

func TestReservedTokens(t *testing.T) {
	v := New()
	if v.Size() != FirstWordID {
		t.Fatalf("Size = %d, want %d", v.Size(), FirstWordID)
	}
	if v.Word(PadID) != "<pad>" || v.Word(EosID) != "<eos>" {
		t.Fatal("reserved token surface forms wrong")
	}
}

func TestAddAndID(t *testing.T) {
	v := New()
	id := v.Add("hello")
	if id != FirstWordID {
		t.Fatalf("first word id = %d, want %d", id, FirstWordID)
	}
	if v.Add("hello") != id {
		t.Fatal("Add of existing word should return same id")
	}
	if v.ID("hello") != id {
		t.Fatal("ID lookup mismatch")
	}
	if v.ID("missing") != UnkID {
		t.Fatal("unknown word should map to UnkID")
	}
}

func TestBuildDeterministic(t *testing.T) {
	corpus := []string{"the quick brown fox", "jumps over the lazy dog"}
	v1 := Build(corpus)
	v2 := Build([]string{"jumps over the lazy dog", "the quick brown fox"})
	// Sorted insertion makes ids independent of corpus line order.
	for _, w := range []string{"the", "quick", "dog", "jumps"} {
		if v1.ID(w) != v2.ID(w) {
			t.Fatalf("id of %q differs across corpus orders", w)
		}
	}
	if v1.Size() != FirstWordID+8 {
		t.Fatalf("Size = %d, want %d", v1.Size(), FirstWordID+8)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	v := Build([]string{"hello world again"})
	ids := v.Encode("hello world")
	if len(ids) != 2 {
		t.Fatalf("Encode length = %d, want 2", len(ids))
	}
	if got := v.Decode(ids); got != "hello world" {
		t.Fatalf("Decode = %q, want %q", got, "hello world")
	}
}

func TestEncodeLowercases(t *testing.T) {
	v := Build([]string{"hello"})
	if v.Encode("HELLO")[0] != v.ID("hello") {
		t.Fatal("Encode should lowercase input")
	}
}

func TestDecodeSkipsControlTokens(t *testing.T) {
	v := Build([]string{"word"})
	got := v.Decode([]int{BosID, v.ID("word"), EosID, PadID})
	if got != "word" {
		t.Fatalf("Decode = %q, want %q", got, "word")
	}
}

func TestDecodeOutOfRange(t *testing.T) {
	v := New()
	if got := v.Decode([]int{999, -1}); got != "<unk> <unk>" {
		t.Fatalf("Decode = %q", got)
	}
}

func TestUnknownWordsEncodeToUnk(t *testing.T) {
	v := Build([]string{"known"})
	ids := v.Encode("known mystery")
	if ids[1] != UnkID {
		t.Fatalf("unknown word id = %d, want %d", ids[1], UnkID)
	}
}

// Property: Word(ID(w)) == w for every word added to the vocab.
func TestWordIDInverse(t *testing.T) {
	v := New()
	f := func(raw []uint8) bool {
		// Build a word from a restricted alphabet so it survives tokenize.
		if len(raw) == 0 {
			return true
		}
		word := ""
		for _, b := range raw {
			word += string(rune('a' + b%26))
		}
		id := v.Add(word)
		return v.Word(id) == word && v.ID(word) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildLowercasesDedupesAndSorts(t *testing.T) {
	v := Build([]string{"Banana  apple\tcherry", "APPLE banana"})
	if v.Size() != FirstWordID+3 {
		t.Fatalf("Size = %d, want %d", v.Size(), FirstWordID+3)
	}
	for i, w := range []string{"apple", "banana", "cherry"} {
		if id := v.ID(w); id != FirstWordID+i {
			t.Fatalf("id of %q = %d, want %d (sorted order)", w, id, FirstWordID+i)
		}
	}
	if v.ID("Banana") != UnkID {
		t.Fatal("Build must store words lowercased only")
	}
}
