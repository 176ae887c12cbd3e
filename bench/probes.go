package main

// Layer probes: direct timed calls into each layer's exported functions,
// made after the traced phases have drained, on the launches the runner
// wrapper captured. They say what one layer costs on its own at the shapes
// this workload actually produced; nothing here feeds an end-to-end metric.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"tcb/internal/batch"
	"tcb/internal/cost"
	"tcb/internal/fair"
	"tcb/internal/gpu"
	"tcb/internal/model"
	"tcb/internal/prefixcache"
	"tcb/internal/rng"
	"tcb/internal/tensor"
	"tcb/internal/vocab"
)

// maxReplayLaunches bounds how many captured launches the model replay uses,
// maxReplayAdmissions how many of a launch's mid-flight admissions (a refilled
// launch lives as long as the queue feeds it, and seats hundreds).
const (
	maxReplayLaunches   = 64
	maxReplayAdmissions = 32
)

// timeIt runs f reps times and returns the mean duration of one call.
func timeIt(reps int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(reps)
}

// timeFor calls f repeatedly for about budget and returns the mean duration
// of one call (at least one call is made).
func timeFor(budget time.Duration, f func()) time.Duration {
	start := time.Now()
	n := 0
	for {
		f()
		n++
		if el := time.Since(start); el >= budget {
			return el / time.Duration(n)
		}
	}
}

// replayRow is one captured batch row rebuilt the way the engine stages it.
type replayRow struct {
	tokens    []int
	layout    model.RowLayout // decode layout: one segment per item
	encLayout model.RowLayout // encoder layout: cold declared prefixes split
	caps      []int
	used      int
	prefixes  [][]int // per item: the cached prefix tokens of a hit, else nil
}

// rebuildRows mirrors engine.Prepare's row staging from a captured batch.
func rebuildRows(cfg sutConfig, l *launchTrace) []replayRow {
	capOf := cfg.outputCap()
	var rows []replayRow
	for _, row := range l.b.Rows {
		if len(row.Items) == 0 {
			continue
		}
		rr := replayRow{tokens: make([]int, 0, row.PadTo)}
		var lengths, encLengths []int
		hit := false
		for _, it := range row.Items {
			seq := l.tokens[it.ID]
			rr.tokens = append(rr.tokens, seq[it.CachedLen:]...)
			lengths = append(lengths, it.Len)
			var pfx []int
			switch {
			case it.CachedLen > 0:
				encLengths = append(encLengths, it.Len)
				pfx, hit = seq[:it.CachedLen], true
			case it.PrefixLen > 0:
				encLengths = append(encLengths, it.PrefixLen, it.Len-it.PrefixLen)
			default:
				encLengths = append(encLengths, it.Len)
			}
			rr.prefixes = append(rr.prefixes, pfx)
			rr.caps = append(rr.caps, min(cfg.MaxNew, capOf(it.Len+it.CachedLen)))
			rr.used += it.Len
		}
		if !hit {
			rr.prefixes = nil
		}
		for len(rr.tokens) < row.PadTo {
			rr.tokens = append(rr.tokens, vocab.PadID)
		}
		rr.layout = model.ConcatLayout(lengths, row.PadTo)
		rr.encLayout = model.ConcatLayout(encLengths, row.PadTo)
		rows = append(rows, rr)
	}
	return rows
}

// modelProbe is what replaying captured launches through the model layer
// measured.
type modelProbe struct {
	encode, decode     time.Duration
	encTokens          int // used (non-padding) tokens encoded
	segSteps           int // Σ decode steps over segments
	buildKV            []float64
	insertUS, removeUS float64
	replayed           int
}

// replayLaunches re-runs captured launches through the model layer alone —
// EncodeRowWS per initial row and per admission (pad-free, as the engine
// encodes them), then one fused cached decode of all of them — timing the two
// halves separately, which a live launch does not let an outside observer do;
// the spans (probe.launch > model.encode, model.decode) go to sb. Admissions
// are seated from step 0 here, not mid-flight: the segment-steps are the
// launch's, the number of segments alive per step is higher than it was live.
// It stops after budget.
func replayLaunches(cfg sutConfig, launches []*launchTrace, budget time.Duration, sb *spanBuilder) modelProbe {
	m := model.New(cfg.Model, cfg.ModelSeed)
	capOf := cfg.outputCap()
	var mp modelProbe
	kvs := make(map[string]*model.PrefixKV) // prefix tokens → frozen K/V
	prefixKV := func(pfx []int) *model.PrefixKV {
		key := fmt.Sprint(pfx)
		if kv, ok := kvs[key]; ok {
			return kv
		}
		enc := m.EncodeRowWS(pfx, model.SingleSegment(len(pfx), len(pfx)), nil, model.AttDense, true, nil)
		t0 := time.Now()
		kv, err := m.BuildPrefixKV(enc)
		mp.buildKV = append(mp.buildKV, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return nil
		}
		kvs[key] = kv
		return kv
	}
	deadline := time.Now().Add(budget)
	for i, l := range launches {
		if i >= maxReplayLaunches || (i > 0 && time.Now().After(deadline)) {
			break
		}
		rows := rebuildRows(cfg, l)
		decRows := make([]model.BatchDecodeRow, len(rows))
		caps := make([][]int, len(rows))
		for ri, rr := range rows {
			if rr.prefixes != nil {
				decRows[ri].Prefixes = make([]*model.PrefixKV, len(rr.prefixes))
				for k, pfx := range rr.prefixes {
					if pfx != nil {
						decRows[ri].Prefixes[k] = prefixKV(pfx)
					}
				}
			}
		}
		admPrefix := make([]*model.PrefixKV, len(l.adms))
		for k, adm := range l.adms {
			if adm.CachedLen > 0 {
				admPrefix[k] = prefixKV(adm.Tokens[:adm.CachedLen])
			}
		}
		ws := tensor.NewWorkspace()
		launchStart := time.Now()
		for ri, rr := range rows {
			decRows[ri].EncOut = m.EncodeRowWS(rr.tokens, rr.encLayout, nil, model.AttDense, true, ws)
			decRows[ri].Layout = rr.layout
			caps[ri] = rr.caps
			mp.encTokens += rr.used
		}
		for k, adm := range l.adms {
			tokens, n := adm.Tokens[adm.CachedLen:], adm.Resident()
			encLayout := model.SingleSegment(n, n)
			if adm.CachedLen == 0 && adm.PrefixLen > 0 {
				encLayout = model.ConcatLayout([]int{adm.PrefixLen, n - adm.PrefixLen}, n)
			}
			row := model.BatchDecodeRow{EncOut: m.EncodeRowWS(tokens, encLayout, nil, model.AttDense, true, ws), Layout: model.SingleSegment(n, n)}
			if admPrefix[k] != nil {
				row.Prefixes = []*model.PrefixKV{admPrefix[k]}
			}
			decRows = append(decRows, row)
			caps = append(caps, []int{min(cfg.MaxNew, capOf(len(adm.Tokens)))})
			mp.encTokens += n
		}
		encEnd := time.Now()
		ws.Close()
		gen, err := m.GenerateBatchCached(decRows, caps)
		decEnd := time.Now()
		if err != nil {
			continue
		}
		for _, row := range gen {
			for _, g := range row {
				mp.segSteps += g.Steps
			}
		}
		mp.encode += encEnd.Sub(launchStart)
		mp.decode += decEnd.Sub(encEnd)
		root := sb.add("probe.launch", 0, -1, l.replica, launchStart, decEnd)
		sb.add("model.encode", root, -1, l.replica, launchStart, encEnd)
		sb.add("model.decode", root, -1, l.replica, encEnd, decEnd)
		mp.replayed++
	}

	// Segment insertion and removal on a live fused decode state, at this
	// workload's typical request length.
	if len(launches) > 0 {
		rows := rebuildRows(cfg, launches[0])
		n := max(1, rows[0].used/max(1, len(rows[0].caps)))
		src := rng.New(cfg.ModelSeed)
		one := m.EncodeRowWS(randTokens(src, n, cfg.Model.VocabSize), model.SingleSegment(n, n), nil, model.AttDense, true, nil)
		st := m.NewBatchDecodeStateReserve([]model.BatchDecodeRow{{EncOut: one, Layout: model.SingleSegment(n, n)}}, cfg.MaxNew)
		const reps = 64
		var ins, rem time.Duration
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			idx, err := st.InsertSegment(one)
			t1 := time.Now()
			if err != nil {
				break
			}
			st.RemoveSegment(idx)
			ins += t1.Sub(t0)
			rem += time.Since(t1)
		}
		st.Close()
		mp.insertUS = float64(ins.Nanoseconds()) / reps / 1e3
		mp.removeUS = float64(rem.Nanoseconds()) / reps / 1e3
	}
	if len(mp.buildKV) == 0 {
		// No hit in the captured launches: time the projection on a prefix
		// of the configured length so the number exists on every workload.
		src := rng.New(cfg.ModelSeed)
		enc := m.EncodeRowWS(randTokens(src, cfg.PrefixLen, cfg.Model.VocabSize), model.SingleSegment(cfg.PrefixLen, cfg.PrefixLen), nil, model.AttDense, true, nil)
		d := timeIt(8, func() { _, _ = m.BuildPrefixKV(enc) })
		mp.buildKV = append(mp.buildKV, float64(d.Nanoseconds())/1e3)
	}
	return mp
}

// tensorProbe is the kernel layer's numbers.
type tensorProbe struct {
	peakGFLOPS, streamGBps float64
	wide, scalar, int8     float64 // GEMM GFLOP/s at the workload's shapes
	rooflinePct            float64
	attendGFLOPS           float64
	attendCachedUSPerSeg   float64
	poolRunOverheadNS      float64
}

// peakFlops measures what a register-resident multiply-add loop reaches in
// this toolchain: twelve independent float32 chains (enough to cover the
// multiply-add latency on both ports), no memory traffic.
func peakFlops() float64 {
	const iters = 4 << 20
	a0, a1, a2, a3, a4, a5 := float32(1), float32(1.1), float32(1.2), float32(1.3), float32(1.4), float32(1.5)
	a6, a7, a8, a9, a10, a11 := float32(1.6), float32(1.7), float32(1.8), float32(1.9), float32(2), float32(2.1)
	x, y := float32(0.9999999), float32(1e-7)
	start := time.Now()
	for i := 0; i < iters; i++ {
		a0 = a0*x + y
		a1 = a1*x + y
		a2 = a2*x + y
		a3 = a3*x + y
		a4 = a4*x + y
		a5 = a5*x + y
		a6 = a6*x + y
		a7 = a7*x + y
		a8 = a8*x + y
		a9 = a9*x + y
		a10 = a10*x + y
		a11 = a11*x + y
	}
	el := time.Since(start).Seconds()
	sink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 + a11
	return 24 * iters / el / 1e9
}

// sink keeps measured results alive.
var sink float32

// streamBandwidth measures copy bandwidth over buffers far larger than cache
// (bytes read + bytes written per second).
func streamBandwidth() float64 {
	const n = 8 << 20 // 32 MiB per buffer
	src, dst := make([]float32, n), make([]float32, n)
	for i := range src {
		src[i] = float32(i)
	}
	copy(dst, src)
	d := timeIt(4, func() { copy(dst, src) })
	sink = dst[n/2]
	return 2 * 4 * n / d.Seconds() / 1e9
}

// gemmShape is one GEMM of a transformer layer at height m, with how many
// times it occurs per encoder layer.
type gemmShape struct{ k, n, count int }

func layerShapes(c model.Config) []gemmShape {
	return []gemmShape{
		{c.DModel, c.DModel, 4}, // WQ, WK, WV, WO
		{c.DModel, c.DFF, 1},    // FFN up
		{c.DFF, c.DModel, 1},    // FFN down
	}
}

// gemmRate times one layer's GEMMs at height m through mul and returns
// GFLOP/s plus the FLOPs and bytes it counted. FLOPs (2·m·k·n) and bytes
// (4·(m·k + k·n + m·n)) are computed from the shapes, not measured.
func gemmRate(c model.Config, m int, mul func(dst, a, b *tensor.Matrix)) (gflops, flops, bytes float64) {
	src := rng.New(5)
	var total time.Duration
	for _, sh := range layerShapes(c) {
		a, b, dst := tensor.New(m, sh.k), tensor.New(sh.k, sh.n), tensor.New(m, sh.n)
		for i := range a.Data {
			a.Data[i] = float32(src.Float64() - 0.5)
		}
		for i := range b.Data {
			b.Data[i] = float32(src.Float64() - 0.5)
		}
		mul(dst, a, b) // warm
		d := timeFor(5*time.Millisecond, func() { mul(dst, a, b) })
		total += time.Duration(sh.count) * d
		flops += float64(sh.count) * 2 * float64(m) * float64(sh.k) * float64(sh.n)
		bytes += float64(sh.count) * 4 * float64(m*sh.k+sh.k*sh.n+m*sh.n)
	}
	return flops / total.Seconds() / 1e9, flops, bytes
}

// probeTensor measures the machine roofline and the GEMM/attention kernels
// at the workload's shapes: encode GEMMs are L rows high, decode GEMMs as
// high as the mean number of live segments per step; the two are combined
// weighted by the FLOPs the traced run spent in each (encFlops, decFlops).
func probeTensor(cfg sutConfig, decHeight, meanCache int, encFlops, decFlops float64) tensorProbe {
	c := cfg.Model
	tp := tensorProbe{peakGFLOPS: peakFlops(), streamGBps: streamBandwidth()}
	decHeight = max(1, decHeight)
	combine := func(mul func(dst, a, b *tensor.Matrix)) (rate, intensity float64) {
		ge, fe, be := gemmRate(c, cfg.L, mul)
		gd, fd, bd := gemmRate(c, decHeight, mul)
		we, wd := encFlops, decFlops
		if we+wd == 0 {
			we = 1
		}
		rate = (we + wd) / (we/ge + wd/gd)
		// FLOPs per byte of the same mix.
		intensity = (we + wd) / (we*be/fe + wd*bd/fd)
		return rate, intensity
	}
	active := tensor.ActiveKernel()
	tensor.SetKernel(tensor.KernelWide)
	var intensity float64
	tp.wide, intensity = combine(tensor.MatMulInto)
	tensor.SetKernel(tensor.KernelScalar)
	tp.scalar, _ = combine(tensor.MatMulInto)
	tensor.SetKernel(active)
	quant := make(map[*tensor.Matrix]*tensor.QuantizedMatrix)
	tp.int8, _ = combine(func(dst, a, b *tensor.Matrix) {
		q := quant[b]
		if q == nil {
			q = tensor.QuantizeMatrix(b)
			quant[b] = q
		}
		tensor.MatMulQuantizedInto(dst, a, q, nil)
	})
	tp.rooflinePct = pct(tp.wide, min(tp.peakGFLOPS, tp.streamGBps*intensity))

	// Encoder self-attention over one full row: 4·nq·nk·d FLOPs (QKᵀ + A·V).
	n, d := cfg.L, c.DModel
	src := rng.New(6)
	fill := func(m *tensor.Matrix) *tensor.Matrix {
		for i := range m.Data {
			m.Data[i] = float32(src.Float64() - 0.5)
		}
		return m
	}
	q, k, v := fill(tensor.New(n, d)), fill(tensor.New(n, d)), fill(tensor.New(n, d))
	out, scores := tensor.New(n, d), tensor.New(n, n)
	mask := model.SingleSegment(n, n).BuildMask()
	scale := float32(0.25)
	att := timeFor(10*time.Millisecond, func() {
		tensor.MultiHeadAttendInto(out, q, k, v, c.NumHeads, scale, mask, scores)
	})
	tp.attendGFLOPS = 4 * float64(n) * float64(n) * float64(d) / att.Seconds() / 1e9

	// Decode-step attention: one query row per live segment over a cache of
	// the workload's mean resident length.
	meanCache = max(1, meanCache)
	keys, vals := make([]*tensor.Matrix, decHeight), make([]*tensor.Matrix, decHeight)
	idx := make([]int, decHeight)
	for i := range keys {
		keys[i], vals[i], idx[i] = fill(tensor.New(meanCache, d)), fill(tensor.New(meanCache, d)), i
	}
	qd, od, sd := fill(tensor.New(decHeight, d)), tensor.New(decHeight, d), tensor.New(decHeight, meanCache)
	cached := timeFor(5*time.Millisecond, func() {
		tensor.AttendCachedRows(od, qd, keys, vals, idx, c.NumHeads, d/c.NumHeads, scale, sd)
	})
	tp.attendCachedUSPerSeg = float64(cached.Nanoseconds()) / 1e3 / float64(decHeight)
	return tp
}

// probePoolOverhead measures what dispatching a two-chunk job onto the
// kernel worker pool costs over running it inline. It must run with no core
// reservation in force (the caller releases the probes' reservation first).
func probePoolOverhead() float64 {
	pool := tensor.DefaultPool()
	work := func(lo, hi int) {}
	pool.Run(16, 8, work) // spawn the helper
	parallel := timeIt(2000, func() { pool.Run(16, 8, work) })
	inline := timeIt(2000, func() { pool.Run(16, 16, work) })
	return float64((parallel - inline).Nanoseconds())
}

// probeSmall times the cheap per-operation costs of batch, fair, gpu, cost
// and (when the workload declares prefixes) prefixcache.
type smallProbe struct {
	packUS, stampNS, takeNS, ledgerNS, predictNS float64
	acquireUS, insertUS                          float64
}

func probeSmall(cfg sutConfig, params cost.Params, launches []*launchTrace, withPrefix bool) smallProbe {
	var sp smallProbe
	if n := min(len(launches), maxReplayLaunches); n > 0 {
		var pack, predict time.Duration
		for _, l := range launches[:n] {
			items := l.b.Items()
			pack += timeIt(4, func() { batch.PackConcat(items, cfg.B, cfg.L) })
			predict += timeIt(16, func() { params.PredictBatchDuration(l.b) })
		}
		sp.packUS = float64(pack.Nanoseconds()) / float64(n) / 1e3
		sp.predictNS = float64(predict.Nanoseconds()) / float64(n)
	}

	wfq := fair.NewWFQ(nil, nil)
	tenants := cfg.Tenants
	i := 0
	sp.stampNS = float64(timeIt(20000, func() {
		name := tenants[i%len(tenants)]
		wfq.Dispatched(name, wfq.Stamp(name, 20))
		i++
	}).Nanoseconds())
	lim := fair.NewLimiter(cfg.tenantRegistry())
	sp.takeNS = float64(timeIt(20000, func() {
		lim.Take(tenants[i%len(tenants)], 20)
		i++
	}).Nanoseconds())

	mem := gpu.NewMemoryManager(0)
	sp.ledgerNS = float64(timeIt(20000, func() {
		_ = mem.Alloc("probe", 4096)
		_ = mem.Resize("probe", -1024)
		_ = mem.Free("probe")
	}).Nanoseconds()) / 3

	if withPrefix {
		m := model.New(cfg.Model, cfg.ModelSeed)
		src := rng.New(9)
		pc := prefixcache.New(cfg.prefixBudget(), gpu.NewMemoryManager(0))
		var seqs [][]int
		var insert time.Duration
		for k := 0; k < cfg.PrefixSlots; k++ {
			seq := randTokens(src, cfg.PrefixLen+8, cfg.Model.VocabSize)
			enc := m.EncodeRowWS(seq[:cfg.PrefixLen], model.SingleSegment(cfg.PrefixLen, cfg.PrefixLen), nil, model.AttDense, true, nil)
			kv, err := m.BuildPrefixKV(enc)
			if err != nil {
				continue
			}
			t0 := time.Now()
			pc.Insert(seq, cfg.PrefixLen, enc, kv)
			insert += time.Since(t0)
			seqs = append(seqs, seq)
		}
		if len(seqs) > 0 {
			sp.insertUS = float64(insert.Nanoseconds()) / float64(len(seqs)) / 1e3
			sp.acquireUS = float64(timeIt(20000, func() {
				h := pc.Acquire(seqs[i%len(seqs)], cfg.PrefixLen)
				h.Release()
				i++
			}).Nanoseconds()) / 1e3
		}
		pc.Clear()
	}
	return sp
}

// probeHTTP measures what the HTTP front adds on top of the server: two
// closed-loop clients post through the stack's handler (httptest, no
// sockets); overhead = handler wall time − the latency the server itself
// reports (Served − Queued). It returns the median in microseconds.
func probeHTTP(cfg sutConfig, params cost.Params, reqs []request) (float64, error) {
	handler, stop, err := newHTTPFront(cfg, params)
	if err != nil {
		return 0, err
	}
	defer stop()
	const clients, perClient = 2, 24
	var mu sync.Mutex
	var over []float64
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				rq := reqs[(c*perClient+k)%len(reqs)]
				body, _ := json.Marshal(map[string]any{"tokens": rq.Tokens, "deadline_ms": 60000, "prefix_len": rq.PrefixLen})
				req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				handler.ServeHTTP(rec, req)
				el := time.Since(t0)
				var resp struct {
					LatencyMS float64 `json:"latency_ms"`
				}
				err := json.Unmarshal(rec.Body.Bytes(), &resp)
				mu.Lock()
				switch {
				case rec.Code != http.StatusOK:
					if firstErr == nil {
						firstErr = fmt.Errorf("http probe: status %d: %s", rec.Code, rec.Body.String())
					}
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				default:
					over = append(over, float64(el.Nanoseconds())/1e3-resp.LatencyMS*1e3)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return median(over), firstErr
}
