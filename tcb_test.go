package tcb_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tcb"
)

// The façade test exercises the whole public API surface end to end: build
// a model, pack a concat batch, run the engine, serve live requests, and
// simulate a workload.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := tcb.ModelConfig{
		VocabSize: 64, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 128, Eps: 1e-5,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := tcb.NewModel(cfg, 1)
	eng := tcb.NewEngine(m, 3)

	// Pack and run a concat batch.
	items := []tcb.Item{{ID: 1, Len: 4}, {ID: 2, Len: 6}}
	b, rest := tcb.PackConcat(items, 1, 16)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	tokens := map[int64][]int{
		1: {tcb.FirstWordID, tcb.FirstWordID + 1, tcb.FirstWordID + 2, tcb.FirstWordID + 3},
		2: {tcb.FirstWordID + 4, tcb.FirstWordID + 5, tcb.FirstWordID + 6, tcb.FirstWordID + 7, tcb.FirstWordID + 8, tcb.FirstWordID + 9},
	}
	rep, err := eng.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}

	// Live server round trip.
	srv, err := tcb.NewServer(tcb.ServerConfig{
		Engine: eng, Scheduler: tcb.NewDAS(), Scheme: tcb.Concat,
		B: 2, L: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ch, err := srv.Submit(tokens[1], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-ch:
		if resp.Err != nil {
			t.Fatalf("serve error: %v", resp.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server timed out")
	}
}

// tcb.NewEngine, as built, decodes through the engine's one fused KV-cached
// loop: a concat batch whose requests finish at different steps reports its
// early retirements, and each request's tokens are what it gets alone.
func TestPublicEngineRetiresEarly(t *testing.T) {
	cfg := tcb.ModelConfig{
		VocabSize: 64, DModel: 32, NumHeads: 4, DFF: 64,
		EncLayers: 1, DecLayers: 1, MaxLen: 128, Eps: 1e-5,
	}
	eng := tcb.NewEngine(tcb.NewModel(cfg, 2), 5)
	eng.OutputCap = func(inputLen int) int { return inputLen }
	tokens := map[int64][]int{}
	var items []tcb.Item
	for i, n := range []int{5, 2, 3} {
		id := int64(i + 1)
		for j := 0; j < n; j++ {
			tokens[id] = append(tokens[id], tcb.FirstWordID+7*i+j)
		}
		items = append(items, tcb.Item{ID: id, Len: n})
	}
	b, rest := tcb.PackConcat(items, 1, 10)
	if len(rest) != 0 {
		t.Fatalf("rest = %v", rest)
	}
	rep, err := eng.Run(b, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refill == nil || rep.Refill.RetiredEarly == 0 {
		t.Fatalf("default engine retired nothing early: %+v", rep.Refill)
	}
	for _, r := range rep.Results {
		solo, err := eng.RunSingle(r.ID+10, tokens[r.ID])
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Output) != len(solo.Output) || r.Steps != solo.Steps {
			t.Fatalf("request %d: %v/%d vs alone %v/%d", r.ID, r.Output, r.Steps, solo.Output, solo.Steps)
		}
		for i := range r.Output {
			if r.Output[i] != solo.Output[i] {
				t.Fatalf("request %d: %v vs alone %v", r.ID, r.Output, solo.Output)
			}
		}
	}
}

func TestPublicSimulation(t *testing.T) {
	spec := tcb.PaperWorkload(300, 1, 7)
	trace, err := tcb.GenerateWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tcb.Simulate(tcb.SimSystem{
		Name:      "DAS-TCB",
		Scheduler: tcb.NewDAS(),
		Scheme:    tcb.Concat,
		B:         8,
		L:         100,
		Cost:      tcb.CalibratedCostParams(),
	}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scheduled == 0 {
		t.Fatal("nothing scheduled")
	}
}

func TestPublicExperiments(t *testing.T) {
	var buf bytes.Buffer
	err := tcb.RunExperiments(&buf, tcb.ExperimentOptions{Duration: 1, Seed: 1}, "ablation-packing")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ablation-packing") {
		t.Fatal("experiment output missing")
	}
}

func TestVocabFacade(t *testing.T) {
	v := tcb.BuildVocab([]string{"hello world"})
	ids := v.Encode("hello world")
	if len(ids) != 2 || ids[0] < tcb.FirstWordID {
		t.Fatalf("encode = %v", ids)
	}
	if v.Decode(ids) != "hello world" {
		t.Fatal("round trip failed")
	}
}

func TestSchedulerFacade(t *testing.T) {
	das := tcb.NewDAS()
	if das.CompetitiveRatio() != 0.2 {
		t.Fatalf("ratio = %v", das.CompetitiveRatio())
	}
	reqs := []*tcb.Request{
		{ID: 1, Arrival: 0, Deadline: 10, Len: 5},
		{ID: 2, Arrival: 0, Deadline: 10, Len: 7},
	}
	dec := das.Schedule(0, reqs, 2, 20)
	if len(dec.Chosen()) != 2 {
		t.Fatalf("chosen = %d", len(dec.Chosen()))
	}
	for _, s := range []tcb.Scheduler{tcb.FCFS{}, tcb.SJF{}, tcb.DEF{}, tcb.NewSlottedDAS()} {
		if s.Name() == "" {
			t.Fatal("scheduler missing name")
		}
	}
}

func TestPublicTrainingAndCheckpoint(t *testing.T) {
	cfg := tcb.ModelConfig{
		VocabSize: 16, DModel: 16, NumHeads: 2, DFF: 32,
		EncLayers: 1, DecLayers: 1, MaxLen: 16, Eps: 1e-5,
	}
	m := tcb.NewModel(cfg, 3)
	seq := []int{tcb.FirstWordID, tcb.FirstWordID + 1}
	losses, err := tcb.Fit(m, []tcb.TrainExample{{Src: seq, Tgt: seq}},
		tcb.TrainConfig{Steps: 5, BatchSize: 2, LR: 1e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 5 || losses[0] <= 0 {
		t.Fatalf("losses = %v", losses)
	}
	path := t.TempDir() + "/m.gob"
	if err := tcb.SaveModel(m, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := tcb.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg.DModel != cfg.DModel {
		t.Fatal("checkpoint lost config")
	}
}

func TestPublicWorkloadDistAndPersistence(t *testing.T) {
	spec := tcb.PaperWorkload(100, 1, 5)
	dist := tcb.BimodalLengths{
		Low:          tcb.NormalLengths{Mean: 10, Variance: 4, Min: 3, Max: 100},
		High:         tcb.NormalLengths{Mean: 80, Variance: 16, Min: 3, Max: 100},
		HighFraction: 0.3,
	}
	reqs, err := tcb.GenerateWorkloadWithDist(spec, dist)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	path := t.TempDir() + "/trace.json"
	if err := tcb.SaveWorkload(path, &spec, reqs); err != nil {
		t.Fatal(err)
	}
	_, again, err := tcb.LoadWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(reqs) {
		t.Fatal("trace round trip lost requests")
	}
}

func TestPublicCostParams(t *testing.T) {
	if err := tcb.DefaultCostParams(tcb.SmallModelConfig(100)).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tcb.CalibratedCostParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicPackersAndConfigs(t *testing.T) {
	items := []tcb.Item{{ID: 1, Len: 4}, {ID: 2, Len: 5}}
	nb, rest := tcb.PackNaive(items, 4, 100)
	if len(rest) != 0 || nb.NumItems() != 2 {
		t.Fatalf("naive pack: %d items, rest %v", nb.NumItems(), rest)
	}
	sb, rest := tcb.PackSlotted(items, 1, 10, 5)
	if len(rest) != 0 || sb.SlotSize != 5 {
		t.Fatalf("slotted pack: %+v rest %v", sb, rest)
	}
	if err := tcb.PaperModelConfig(100).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []tcb.Scheme{tcb.Naive, tcb.Turbo, tcb.Concat, tcb.SlottedConcat} {
		if s.String() == "" {
			t.Fatal("scheme must render")
		}
	}
}

func TestPublicSlottedSpeedupRunner(t *testing.T) {
	var buf bytes.Buffer
	if err := tcb.RunSlottedSpeedup(&buf, 1, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatalf("missing table: %s", buf.String())
	}
}
