// Package vocab implements the tiny word-level tokenizer the runnable
// examples use to turn sentences into token-id sequences for the TCB
// inference engine. It is intentionally simple — the paper's contribution is
// batching and scheduling, not tokenization — but it is a real, reversible
// tokenizer so examples can round-trip text.
package vocab

import (
	"sort"
	"strings"
)

// Reserved token ids. User words start at FirstWordID.
const (
	PadID = iota // padding token; ignored by the engine's masks
	BosID        // beginning of sequence (decoder start)
	EosID        // end of sequence (decoder stop)
	UnkID        // unknown word
	FirstWordID
)

// Vocab maps words to integer ids and back.
type Vocab struct {
	wordToID map[string]int
	idToWord []string
}

// New returns a vocabulary containing only the reserved tokens.
func New() *Vocab {
	v := &Vocab{wordToID: make(map[string]int)}
	for _, w := range []string{"<pad>", "<bos>", "<eos>", "<unk>"} {
		v.idToWord = append(v.idToWord, w)
		v.wordToID[w] = len(v.idToWord) - 1
	}
	return v
}

// Build returns a vocabulary over every whitespace-separated lowercase word
// in corpus, added in sorted order so construction is deterministic.
func Build(corpus []string) *Vocab {
	v := New()
	seen := make(map[string]bool)
	var words []string
	for _, line := range corpus {
		for _, w := range tokenize(line) {
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	sort.Strings(words)
	for _, w := range words {
		v.Add(w)
	}
	return v
}

func tokenize(s string) []string {
	return strings.Fields(strings.ToLower(s))
}

// Add inserts word (if new) and returns its id.
func (v *Vocab) Add(word string) int {
	if id, ok := v.wordToID[word]; ok {
		return id
	}
	v.idToWord = append(v.idToWord, word)
	id := len(v.idToWord) - 1
	v.wordToID[word] = id
	return id
}

// Size returns the number of tokens, reserved ids included.
func (v *Vocab) Size() int { return len(v.idToWord) }

// ID returns the id of word, or UnkID if unseen.
func (v *Vocab) ID(word string) int {
	if id, ok := v.wordToID[word]; ok {
		return id
	}
	return UnkID
}

// Word returns the surface form of id, or "<unk>" if out of range.
func (v *Vocab) Word(id int) string {
	if id < 0 || id >= len(v.idToWord) {
		return v.idToWord[UnkID]
	}
	return v.idToWord[id]
}

// Encode tokenizes sentence and maps each word to an id.
func (v *Vocab) Encode(sentence string) []int {
	words := tokenize(sentence)
	ids := make([]int, len(words))
	for i, w := range words {
		ids[i] = v.ID(w)
	}
	return ids
}

// Decode maps ids back to words, skipping reserved control tokens, and
// joins them with spaces.
func (v *Vocab) Decode(ids []int) string {
	var words []string
	for _, id := range ids {
		if id == PadID || id == BosID || id == EosID {
			continue
		}
		words = append(words, v.Word(id))
	}
	return strings.Join(words, " ")
}
