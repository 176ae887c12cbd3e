// Train-and-serve: the full lifecycle in one file. Train a small
// transformer on an echo task (target = source) with the backprop module,
// checkpoint it, reload it, and serve it through the TCB online server
// with DAS scheduling and ConcatBatching — then verify the served outputs
// are the learned echoes. This is the paper's serving system wrapped
// around a model that actually learned something.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"tcb"
)

const (
	vocabSize = 24
	maxSeqLen = 5
)

func main() {
	cfg := tcb.ModelConfig{
		VocabSize: vocabSize, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 64, Eps: 1e-5,
	}
	m := tcb.NewModel(cfg, 11)

	// Echo corpus: every short sequence maps to itself.
	var examples []tcb.TrainExample
	for a := tcb.FirstWordID; a < vocabSize; a++ {
		for b := tcb.FirstWordID; b < vocabSize; b += 3 {
			seq := []int{a, b, (a+b)%(vocabSize-tcb.FirstWordID) + tcb.FirstWordID}
			examples = append(examples, tcb.TrainExample{Src: seq, Tgt: seq})
		}
	}
	fmt.Printf("training on %d echo examples …\n", len(examples))
	losses, err := tcb.Fit(m, examples, tcb.TrainConfig{
		Steps: 300, BatchSize: 16, LR: 3e-3, Seed: 1,
		Progress: func(step int, loss float64) {
			if step%75 == 0 {
				fmt.Printf("  step %3d loss %.4f\n", step, loss)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  final loss %.4f\n", losses[len(losses)-1])

	// Checkpoint round trip.
	dir, err := os.MkdirTemp("", "tcb-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "echo.gob")
	if err := tcb.SaveModel(m, path); err != nil {
		log.Fatal(err)
	}
	loaded, err := tcb.LoadModel(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed and reloaded %s\n", path)

	// Serve the trained model under DAS + ConcatBatching.
	eng := tcb.NewEngine(loaded, maxSeqLen+1)
	srv, err := tcb.NewServer(tcb.ServerConfig{
		Engine: eng, Scheduler: tcb.NewDAS(), Scheme: tcb.Concat,
		B: 2, L: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	tests := [][]int{
		{tcb.FirstWordID, tcb.FirstWordID + 4, tcb.FirstWordID + 7},
		{tcb.FirstWordID + 9, tcb.FirstWordID + 3, tcb.FirstWordID + 12},
		{tcb.FirstWordID + 2, tcb.FirstWordID + 15, tcb.FirstWordID + 6},
	}
	correct := 0
	for i, seq := range tests {
		ch, err := srv.Submit(seq, 5*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		resp := <-ch
		if resp.Err != nil {
			log.Fatal(resp.Err)
		}
		match := len(resp.Output) == len(seq)
		if match {
			for j := range seq {
				if resp.Output[j] != seq[j] {
					match = false
					break
				}
			}
		}
		if match {
			correct++
		}
		fmt.Printf("request %d: in=%v out=%v echo=%v\n", i+1, seq, resp.Output, match)
	}
	fmt.Printf("\n%d/%d served responses are correct echoes\n", correct, len(tests))
	if correct < 2 {
		log.Fatal("trained model failed to echo — training regressed")
	}
}
