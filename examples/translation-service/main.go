// Translation-service: run the live TCB server (DAS scheduling + pure
// ConcatBatching on the real Go transformer) against a bursty stream of
// translation-style requests, then run the identical stream through a
// FCFS server on the same ConcatBatching layout and compare served counts,
// deadline misses and latency — the paper's motivating scenario at laptop
// scale. The server serves ConcatBatching only; the paper's TNB and TTB
// baselines run on the simulator (examples/trace-replay).
package main

import (
	"fmt"
	"log"
	"time"

	"tcb"
)

const (
	numRequests = 48
	deadline    = 1500 * time.Millisecond
	meanGapMS   = 12
)

type result struct {
	served, missed int
	p50, p95       time.Duration
}

func main() {
	cfg := tcb.ModelConfig{
		VocabSize: 512, DModel: 64, NumHeads: 4, DFF: 128,
		EncLayers: 2, DecLayers: 2, MaxLen: 256, Eps: 1e-5,
	}
	m := tcb.NewModel(cfg, 7)

	fmt.Println("running DAS + ConcatBatching …")
	das := run(m, tcb.NewDAS())
	fmt.Println("running FCFS + ConcatBatching …")
	fcfs := run(m, tcb.FCFS{})

	fmt.Printf("\n%-22s %8s %8s %10s %10s\n", "system", "served", "missed", "p50", "p95")
	fmt.Printf("%-22s %8d %8d %10s %10s\n", "DAS-TCB (concat)", das.served, das.missed, das.p50.Round(time.Millisecond), das.p95.Round(time.Millisecond))
	fmt.Printf("%-22s %8d %8d %10s %10s\n", "FCFS-TCB (concat)", fcfs.served, fcfs.missed, fcfs.p50.Round(time.Millisecond), fcfs.p95.Round(time.Millisecond))
	if das.served < fcfs.served {
		fmt.Println("\nnote: at this scale the gap is noisy; rerun or raise numRequests")
	} else {
		fmt.Println("\nDAS-TCB served at least as many requests within deadlines ✓")
	}
	fmt.Println("for the TNB/TTB baselines on the simulator: go run ./examples/trace-replay")
}

func run(m *tcb.Model, scheduler tcb.Scheduler) result {
	eng := tcb.NewEngine(m, 4)
	srv, err := tcb.NewServer(tcb.ServerConfig{
		Engine: eng, Scheduler: scheduler, Scheme: tcb.Concat,
		B: 4, L: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	// Deterministic bursty workload: sentence lengths cycle through a
	// "translation" mix of short chats and longer paragraphs.
	lengths := []int{5, 8, 21, 6, 34, 9, 13, 7, 40, 11, 5, 17}
	var chans []<-chan tcb.Response
	for i := 0; i < numRequests; i++ {
		l := lengths[i%len(lengths)]
		sentence := make([]int, l)
		for j := range sentence {
			sentence[j] = tcb.FirstWordID + (i*31+j*7)%400
		}
		ch, err := srv.Submit(sentence, deadline)
		if err != nil {
			log.Fatal(err)
		}
		chans = append(chans, ch)
		time.Sleep(time.Duration((i%3)+1) * meanGapMS * time.Millisecond / 2)
	}

	var latencies []time.Duration
	var res result
	for _, ch := range chans {
		resp := <-ch
		switch resp.Err {
		case nil:
			res.served++
			latencies = append(latencies, resp.Served.Sub(resp.Queued))
		case tcb.ErrDeadlineExceeded:
			res.missed++
		default:
			log.Fatalf("request failed: %v", resp.Err)
		}
	}
	if len(latencies) > 0 {
		// Insertion sort: tiny slice.
		for i := 1; i < len(latencies); i++ {
			for j := i; j > 0 && latencies[j] < latencies[j-1]; j-- {
				latencies[j], latencies[j-1] = latencies[j-1], latencies[j]
			}
		}
		res.p50 = latencies[len(latencies)/2]
		res.p95 = latencies[len(latencies)*95/100]
	}
	return res
}
