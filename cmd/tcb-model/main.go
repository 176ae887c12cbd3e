// Command tcb-model creates, inspects and smoke-tests model checkpoints.
//
// Usage:
//
//	tcb-model -new model.gob [-dmodel 64] [-heads 4] [-dff 128]
//	          [-enc 2] [-dec 2] [-vocab 256] [-maxlen 512] [-seed 42]
//	tcb-model -info model.gob       # print config and parameter count
//	tcb-model -smoke model.gob      # run a concat-vs-standalone check
//
// It exits 0 on success, 1 when a checkpoint cannot be built, written, read
// or fails the smoke test, and 2 on a usage error (no mode, or a bad flag).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/model"
	"tcb/internal/rng"
	"tcb/internal/vocab"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, does the one thing they ask, reports to stdout (errors to
// stderr) and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcb-model", flag.ContinueOnError)
	fs.SetOutput(stderr)
	newPath := fs.String("new", "", "create a checkpoint at this path")
	infoPath := fs.String("info", "", "describe the checkpoint at this path")
	smokePath := fs.String("smoke", "", "smoke-test the checkpoint at this path")
	dmodel := fs.Int("dmodel", 64, "hidden width")
	heads := fs.Int("heads", 4, "attention heads")
	dff := fs.Int("dff", 128, "feed-forward width")
	enc := fs.Int("enc", 2, "encoder layers")
	dec := fs.Int("dec", 2, "decoder layers")
	vocabSize := fs.Int("vocab", 256, "vocabulary size")
	maxLen := fs.Int("maxlen", 512, "maximum row length")
	seed := fs.Uint64("seed", 42, "weight seed")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	switch {
	case *newPath != "":
		cfg := model.Config{
			VocabSize: *vocabSize, DModel: *dmodel, NumHeads: *heads,
			DFF: *dff, EncLayers: *enc, DecLayers: *dec,
			MaxLen: *maxLen, Eps: 1e-5,
		}
		if err := cfg.Validate(); err != nil {
			return fail(err)
		}
		m := model.New(cfg, *seed)
		if err := m.SaveFile(*newPath); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d parameters)\n", *newPath, paramCount(m))
	case *infoPath != "":
		m, err := model.LoadFile(*infoPath)
		if err != nil {
			return fail(err)
		}
		c := m.Cfg
		fmt.Fprintf(stdout, "vocab=%d d_model=%d heads=%d d_ff=%d enc=%d dec=%d max_len=%d\n",
			c.VocabSize, c.DModel, c.NumHeads, c.DFF, c.EncLayers, c.DecLayers, c.MaxLen)
		fmt.Fprintf(stdout, "parameters: %d\n", paramCount(m))
	case *smokePath != "":
		m, err := model.LoadFile(*smokePath)
		if err != nil {
			return fail(err)
		}
		if err := smoke(m); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "concat inference == standalone inference ✓")
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// paramCount counts float32 weights.
func paramCount(m *model.Model) int {
	count := len(m.P.Embedding.Data)
	lin := func(l *model.Linear) int { return len(l.W.Data) + len(l.B) }
	attn := func(a *model.AttentionWeights) int {
		return lin(a.WQ) + lin(a.WK) + lin(a.WV) + lin(a.WO)
	}
	for _, layer := range m.P.Encoder {
		count += attn(layer.SelfAttn) + lin(layer.FFN.In) + lin(layer.FFN.Out)
		count += len(layer.Norm1.Gain) + len(layer.Norm1.Bias)
		count += len(layer.Norm2.Gain) + len(layer.Norm2.Bias)
	}
	for _, layer := range m.P.Decoder {
		count += attn(layer.SelfAttn) + attn(layer.CrossAttn)
		count += lin(layer.FFN.In) + lin(layer.FFN.Out)
		count += len(layer.Norm1.Gain) + len(layer.Norm1.Bias)
		count += len(layer.Norm2.Gain) + len(layer.Norm2.Bias)
		count += len(layer.Norm3.Gain) + len(layer.Norm3.Bias)
	}
	count += lin(m.P.OutProj)
	return count
}

// smoke verifies the ConcatBatching equivalence on the loaded model.
func smoke(m *model.Model) error {
	e := engine.New(m, 3)
	src := rng.New(1)
	lens := []int{4, 7, 3}
	items := make([]batch.Item, len(lens))
	tokens := make(map[int64][]int)
	for i, l := range lens {
		id := int64(i + 1)
		seq := make([]int, l)
		for j := range seq {
			seq[j] = src.IntRange(vocab.FirstWordID, m.Cfg.VocabSize-1)
		}
		items[i] = batch.Item{ID: id, Len: l}
		tokens[id] = seq
	}
	b, rest := batch.PackConcat(items, 1, 20)
	if len(rest) != 0 {
		return fmt.Errorf("smoke: pack failed")
	}
	rep, err := e.Run(b, tokens)
	if err != nil {
		return err
	}
	for _, r := range rep.Results {
		solo, err := e.RunSingle(r.ID+100, tokens[r.ID])
		if err != nil {
			return err
		}
		if len(r.Output) != len(solo.Output) {
			return fmt.Errorf("smoke: request %d diverges from standalone", r.ID)
		}
		for i := range r.Output {
			if r.Output[i] != solo.Output[i] {
				return fmt.Errorf("smoke: request %d token %d diverges", r.ID, i)
			}
		}
	}
	return nil
}
