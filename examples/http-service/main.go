// Http-service: run the TCB server behind its stdlib HTTP front, fire a
// burst of concurrent JSON requests at it from this same process, and
// print the stats endpoint's view — the shape of a production deployment
// in one file.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"

	"tcb"
)

func main() {
	cfg := tcb.ModelConfig{
		VocabSize: 256, DModel: 48, NumHeads: 4, DFF: 96,
		EncLayers: 2, DecLayers: 2, MaxLen: 256, Eps: 1e-5,
	}
	eng := tcb.NewEngine(tcb.NewModel(cfg, 13), 4)
	srv, err := tcb.NewServer(tcb.ServerConfig{
		Engine: eng, Scheduler: tcb.NewDAS(), Scheme: tcb.Concat,
		B: 4, L: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	ts := httptest.NewServer(tcb.NewHTTPHandler(srv))
	defer ts.Close()
	fmt.Println("HTTP server up at", ts.URL)

	// Fire 24 concurrent clients.
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, failed := 0, 0
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 3 + i%9
			tokens := make([]int, n)
			for j := range tokens {
				tokens[j] = tcb.FirstWordID + (i*13+j)%200
			}
			body, _ := json.Marshal(map[string]any{
				"tokens": tokens, "deadline_ms": 3000,
			})
			resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
			mu.Lock()
			defer mu.Unlock()
			if err != nil || resp.StatusCode != http.StatusOK {
				failed++
				if resp != nil {
					resp.Body.Close()
				}
				return
			}
			var out struct {
				Output    []int   `json:"output"`
				LatencyMS float64 `json:"latency_ms"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			ok++
			if i < 3 {
				fmt.Printf("client %2d: %2d tokens in → %2d tokens out, %.1f ms\n",
					i, n, len(out.Output), out.LatencyMS)
			}
		}(i)
	}
	wg.Wait()

	stats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer stats.Body.Close()
	var st map[string]any
	_ = json.NewDecoder(stats.Body).Decode(&st)
	fmt.Printf("\nclients: %d ok, %d failed\n", ok, failed)
	fmt.Printf("server stats: %v\n", st)
	if failed > 0 {
		log.Fatal("some requests failed")
	}
	fmt.Println("all HTTP requests served ✓")
}
