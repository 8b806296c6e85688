package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"chopper"
	"chopper/internal/codegen"
	"chopper/internal/dram"
	"chopper/internal/serve"
	"chopper/internal/workloads"
)

// serve-mix: chopperd under arriving traffic, driven in process through
// serve.HandlerTarget (no sockets). The server batches as CI's
// serve-smoke starts it (-batch-window 5ms -max-batch 16) but keeps the
// default class bounds (serve-smoke also passes -max-inflight 2
// -max-queue 8, a deliberately constrained capacity).
// Traffic is an open loop: seeded exponential arrivals, each request
// timed from its due time, over 4 tenants and all three QoS classes.
// Most requests are /v1/run on the hot set (the four small paper kernels
// plus serve.DefaultSources) at 16, 256 or 1024 lanes; some are
// /v1/verify; a few carry a source no earlier request used (the hot
// source behind an unused, uniquely named node) and so compile inside
// the request. Every phase draws from the same fixed mix, so the work
// repeats whatever the seed; the seed sets order, tenants, classes,
// operands, salts and arrival times.
const (
	serveBatchWindow = 5 * time.Millisecond
	serveMaxBatch    = 16
	serveTenants     = 4
	// serveRefQPS is the fixed reference rate op_p50_ms, op_tail_ms and
	// the simulated totals are measured at, a tenth of what the server
	// sustains on two cores: low enough that the tail is the heavy
	// requests' own service time, not queueing behind each other, which
	// would amplify every wander in the shared machine's speed.
	serveRefQPS = 20
	// serveTailQ is serve-mix's op_tail_ms percentile: the reference phase
	// sends 240 requests, so p95 has twelve beyond it, and the ladder's
	// first rung (216 qps) sends about 215 interactive ones, ten beyond.
	serveTailQ = 0.95
	// serveSLOms is the interactive tail limit of slo_qps, an order of
	// magnitude above the tail at the reference rate: a rung fails where
	// the server saturates and queues build, not on one burst of heavy
	// requests, so the rung found moves little between runs.
	serveSLOms = 1000
	// serveOKShare is the success share a ladder rung must reach.
	serveOKShare = 0.99
	// serveLateBound is how late the generator may send (p99) in the
	// reference phase before the run is invalid.
	serveLateBound = 50 * time.Millisecond
	// serveBacklogBound is how late it may send on a ladder rung before
	// the rung counts as a growing backlog.
	serveBacklogBound = 200 * time.Millisecond
	// serveVariants operand sets per (source, lanes), each with its
	// dfg.Graph.Eval reference computed before the timed set-up.
	serveVariants = 2
	serveSetups   = 5
	serveTrials   = 3
	// serveMaxOutstanding caps the generator's in-flight requests, so a
	// stalled server shows as generator lateness rather than unbounded
	// goroutines.
	serveMaxOutstanding = 512
)

var (
	serveLanes = []int{16, 256, 1024}
	// serveLadder is the fixed offered-rate ladder slo_qps is read from:
	// 3.5% steps from 40 qps, beyond what the search can climb to.
	serveLadder = func() []float64 {
		var l []float64
		for r := 40.0; r < 1200; r *= 1.035 {
			l = append(l, math.Round(r*10)/10)
		}
		return l
	}()
	classNames = []string{"interactive", "batch", "best-effort"}
	// classWeights draws the QoS class with serve.LoadConfig's default
	// weights, the repo's own chopperd traffic definition (2:3:1
	// interactive:batch:best-effort).
	classWeights = []int{2, 3, 1}
)

// The kind mix, per mixPeriod requests. The verify share is
// serve.LoadConfig's (a tenth); the requests its default mix sends as
// /v1/compile are runs here, because a run on a cached source is the
// hot request this workload is about. The miss share, one in twenty, is
// an assumption: the repo's traffic definition has no misses in its
// steady phase and nothing but misses in its overload phase.
const (
	mixPeriod   = 20
	mixMisses   = 1
	mixVerifies = 2
)

// errGeneratorBehind marks a serve-mix run whose load generator could
// not keep its schedule: the measured latencies would describe a lighter
// load than the one stated, so the run is invalid and prints no result.
var errGeneratorBehind = errors.New("serve-mix: load generator fell behind its schedule")

type hotSource struct {
	name string
	src  string
	// variants[lanesIdx][v] are operand sets with their reference outputs.
	variants [][]operands
}

type operands struct {
	in   map[string][]uint64
	want map[string][]uint64
}

type serveSetup struct {
	srv     *serve.Server
	handler serve.HandlerTarget
	hot     []*hotSource
}

func hotSources(short bool) []hotSource {
	var hs []hotSource
	kernels := paperKernels
	if short {
		kernels = kernels[:1]
	}
	for _, wl := range kernels {
		spec, _ := workloads.Get(wl)
		hs = append(hs, hotSource{name: wl, src: spec.Src})
	}
	for _, ls := range serve.DefaultSources() {
		hs = append(hs, hotSource{name: ls.Name, src: ls.Source})
	}
	return hs
}

func serveConfig() serve.Config {
	var cfg serve.Config
	for c := serve.Interactive; c <= serve.BestEffort; c++ {
		cc := serve.DefaultClassConfig(c)
		cc.BatchWindow, cc.MaxBatchSize = serveBatchWindow, serveMaxBatch
		cfg.Classes[c] = cc
	}
	return cfg
}

// hotOperands compiles each hot source once for its interface and graph,
// and draws its operand sets with their dfg.Graph.Eval references: the
// benchmark's own oracle, prepared outside the timed set-up.
func hotOperands(seed int64, short bool) ([]*hotSource, error) {
	rng := rand.New(rand.NewSource(seed))
	var hot []*hotSource
	for _, h := range hotSources(short) {
		h := h
		k, err := chopper.Compile(h.src, chopper.Options{})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", h.name, err)
		}
		for _, lanes := range serveLanes {
			var vs []operands
			for v := 0; v < serveVariants; v++ {
				wide := wideInputs(rng, k.Inputs, lanes)
				want, err := evalWide(k.Graph, k.Inputs, k.Outputs, wide, lanes)
				if err != nil {
					return nil, fmt.Errorf("reference for %s: %w", h.name, err)
				}
				vs = append(vs, operands{in: narrowVals(wide), want: narrowVals(want)})
			}
			h.variants = append(h.variants, vs)
		}
		hot = append(hot, &h)
	}
	return hot, nil
}

// setupServe is serve-mix's timed set-up: it builds the server and warms
// every (tenant, class, hot source) kernel with one run, so the measured
// phases see a server in steady state.
func setupServe(hot []*hotSource) (*serveSetup, error) {
	st := &serveSetup{srv: serve.New(serveConfig()), hot: hot}
	st.handler = serve.HandlerTarget{Handler: st.srv.Handler()}
	for t := 0; t < serveTenants; t++ {
		for c := range classNames {
			for _, h := range st.hot {
				req := &serve.Request{Tenant: tenantName(t), Class: classNames[c], Source: h.src,
					Lanes: serveLanes[0], Inputs: h.variants[0][0].in}
				status, resp, err := st.handler.Do(context.Background(), "run", req)
				if err != nil || status != 200 || !sameVals(h.variants[0][0].want, resp.Outputs) {
					return nil, fmt.Errorf("warm %s for %s/%s: status %d, %v", h.name, req.Tenant, req.Class, status, err)
				}
			}
		}
	}
	return st, nil
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

// narrowVals turns wide (limb-slice) lanes into one uint64 per lane; the
// service handles widths up to 64.
func narrowVals(wide map[string][][]uint64) map[string][]uint64 {
	out := make(map[string][]uint64, len(wide))
	for name, lanes := range wide {
		vs := make([]uint64, len(lanes))
		for i, l := range lanes {
			vs[i] = l[0]
		}
		out[name] = vs
	}
	return out
}

func sameVals(want, got map[string][]uint64) bool {
	if len(want) != len(got) {
		return false
	}
	for name, w := range want {
		if !slices.Equal(w, got[name]) {
			return false
		}
	}
	return true
}

// plannedReq is one generated request and what its answer must be.
type plannedReq struct {
	kind  string
	class int
	hot   *hotSource
	lanes int
	ops   *operands
	miss  bool
	req   *serve.Request
}

// sentReq is one request as the load generator saw it.
type sentReq struct {
	*plannedReq
	status  int
	resp    *serve.Response
	latency time.Duration // from due time to response
	late    time.Duration // from due time to send
	ok      bool
}

// planPhase draws n requests from the fixed mix: of every mixPeriod,
// mixMisses force a cache miss, mixVerifies verify and the rest run.
// Each kind walks the hot sources in turn on its own counter (runs walk
// every source at every lane count), so every hot source gets runs,
// verifies and misses; the seeded shuffle then sets their order.
func planPhase(st *serveSetup, rng *rand.Rand, n int) []*plannedReq {
	reqs := make([]*plannedReq, n)
	classTotal := 0
	for _, w := range classWeights {
		classTotal += w
	}
	var kindN [3]int // misses, verifies, runs planned so far
	for i := range reqs {
		p := &plannedReq{kind: "run"}
		kind := 2
		switch slot := i % mixPeriod; {
		case slot < mixMisses:
			p.miss, kind = true, 0
		case slot < mixMisses+mixVerifies:
			p.kind, kind = "verify", 1
		}
		c := kindN[kind]
		kindN[kind]++
		p.hot = st.hot[c%len(st.hot)]
		li := (c / len(st.hot)) % len(serveLanes)
		p.lanes = serveLanes[li]
		p.ops = &p.hot.variants[li][rng.Intn(serveVariants)]
		draw := rng.Intn(classTotal)
		for p.class = 0; draw >= classWeights[p.class]; p.class++ {
			draw -= classWeights[p.class]
		}
		src := p.hot.src
		if p.miss {
			src = fmt.Sprintf("node miss_%x(x: u8) returns (y: u8) let y = x; tel\n%s", rng.Uint64(), src)
		}
		p.req = &serve.Request{Tenant: tenantName(rng.Intn(serveTenants)), Class: classNames[p.class], Source: src}
		if p.kind == "run" {
			p.req.Lanes, p.req.Inputs = p.lanes, p.ops.in
		} else {
			p.req.Trials, p.req.Seed = serveTrials, rng.Int63n(1<<30)+1
		}
		reqs[i] = p
	}
	rng.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// arrivals returns n seeded exponential arrival offsets scaled to span
// exactly d: a Poisson process conditioned on n arrivals in d.
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	gaps := make([]float64, n+1)
	var sum float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	out := make([]time.Duration, n)
	var at float64
	for i := 0; i < n; i++ {
		at += gaps[i]
		out[i] = time.Duration(at / sum * float64(d))
	}
	return out
}

// runPhase sends reqs open loop at the given offsets and waits for every
// answer. Output checks run after each response's time is taken.
func runPhase(st *serveSetup, reqs []*plannedReq, at []time.Duration) []*sentReq {
	sent := make([]*sentReq, len(reqs))
	sem := make(chan struct{}, serveMaxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range reqs {
		due := start.Add(at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		s := &sentReq{plannedReq: p, late: time.Since(due)}
		sent[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			status, resp, err := st.handler.Do(context.Background(), s.kind, s.req)
			s.latency = time.Since(due)
			s.status, s.resp = status, resp
			s.ok = err == nil && status == 200 && resp != nil && s.check()
		}()
	}
	wg.Wait()
	return sent
}

func (s *sentReq) check() bool {
	if s.kind == "verify" {
		return s.resp.VerifyOK != nil && *s.resp.VerifyOK
	}
	return sameVals(s.ops.want, s.resp.Outputs)
}

// phaseStats summarizes one phase. p50 and tail are over answered
// requests (a failure already makes the run incorrect); interTail, which
// the SLO judges, counts a failed request as infinitely late.
type phaseStats struct {
	n, okN, shed          int
	failed                [3]int  // by class
	p50, tail, interTail  float64 // ms
	lateP99               float64 // ms
	simNs                 float64
	uops, hits            int
	batched, batchMembers int
}

func summarize(sent []*sentReq) phaseStats {
	var st phaseStats
	var ok, inter, late, simT []float64
	for _, s := range sent {
		st.n++
		lat := math.Inf(1)
		if s.ok {
			st.okN++
			lat = ms(s.latency)
			ok = append(ok, lat)
			st.uops += s.resp.MicroOps
			simT = append(simT, s.resp.TimeNs)
			if s.resp.Cache == "hit" {
				st.hits++
			}
			if s.resp.BatchSize > 1 {
				st.batched++
			}
			st.batchMembers += max(s.resp.BatchSize, 1)
		}
		if !s.ok {
			st.failed[s.class]++
		}
		if s.status == 429 {
			st.shed++
		}
		if s.class == 0 {
			inter = append(inter, lat)
		}
		late = append(late, ms(s.late))
	}
	// Summed in sorted order, so the total does not depend on the order
	// the seed sent the requests in.
	slices.Sort(simT)
	for _, t := range simT {
		st.simNs += t
	}
	st.p50, st.tail = quantile(ok, 0.5), quantile(ok, serveTailQ)
	st.interTail = quantile(inter, serveTailQ)
	st.lateP99 = quantile(late, 0.99)
	return st
}

func (st phaseStats) meetsSLO() bool {
	return st.interTail <= serveSLOms && float64(st.okN) >= serveOKShare*float64(st.n) && st.lateP99 <= ms(serveBacklogBound)
}

// The ladder search starts at 216 qps, below the knee on two cores, with
// a step of eight rungs, and measures eight rungs; the last four it
// visits settle the result. Each rung is measured for three twentieths
// of the run: on a shared machine whose speed wanders over seconds,
// shorter windows make the knee jump between runs.
const (
	ladderStart  = 49
	ladderStep   = 8
	ladderProbes = 8
	ladderSettle = 4
)

// refDuration and probeDuration split a run: three fifths at the
// reference rate, three twentieths per ladder rung measured.
func refDuration(total time.Duration) time.Duration   { return total * 3 / 5 }
func probeDuration(total time.Duration) time.Duration { return total * 3 / 20 }

func runServeMix(cfg config) (*outcome, error) {
	hot, err := hotOperands(cfg.seed, cfg.short)
	if err != nil {
		return nil, err
	}
	st, setupS, err := timeSetup(cfg, serveSetups, func() (*serveSetup, error) { return setupServe(hot) })
	if err != nil {
		return nil, err
	}
	defer func() {
		st.srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = st.srv.Shutdown(ctx) // every request has finished; nothing is left to drain
	}()
	lateBound := serveLateBound
	if cfg.lateBound != 0 {
		lateBound = cfg.lateBound
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5e77e))
	out := &outcome{}

	// One untimed second of traffic at the reference rate brings the
	// server's pools and batchers to steady state.
	n := serveRefQPS
	warm := summarize(runPhase(st, planPhase(st, rng, n), arrivals(rng, n, time.Second)))
	runtime.GC()
	refDur := refDuration(cfg.seconds)
	n = max(int(serveRefQPS*refDur.Seconds()), 20)
	cpu0 := cpuTime()
	ref := runPhase(st, planPhase(st, rng, n), arrivals(rng, n, refDur))
	refCPU := cpuTime() - cpu0
	rssMB := peakRSSMB()
	rs := summarize(ref)
	out.attempted, out.failed = warm.n+rs.n, warm.n-warm.okN+rs.n-rs.okN
	if rs.lateP99 > ms(lateBound) {
		return nil, fmt.Errorf("%w: p99 send lateness %.1f ms at %d qps, bound %v", errGeneratorBehind, rs.lateP99, serveRefQPS, lateBound)
	}

	// An up-down search of the ladder for the highest rung that meets the
	// SLO: from a rung below the knee, step up after a rung meets it and
	// down after one misses, halving the step at each turn. The last rungs
	// visited straddle the knee; slo_qps is the rung their mean rounds
	// down to. Unlike a binary search, a window sunk by one burst of heavy
	// requests costs a step back instead of capping the result.
	probe := probeDuration(cfg.seconds)
	// One untimed second at the first rung, so the first measured rung
	// does not pay for the jump from the reference rate (heap growth,
	// goroutine stacks).
	n = int(serveLadder[ladderStart])
	runPhase(st, planPhase(st, rng, n), arrivals(rng, n, time.Second))
	var ladderN, ladderShed int
	meets := func(rate float64) bool {
		n := max(int(rate*probe.Seconds()), 20)
		ps := summarize(runPhase(st, planPhase(st, rng, n), arrivals(rng, n, probe)))
		ladderN += ps.n
		ladderShed += ps.shed
		fmt.Fprintf(os.Stderr, "serve-mix: %.1f qps: interactive p%.0f %.1f ms, ok %d/%d (failed by class %v), p99 send lateness %.1f ms\n",
			rate, 100*serveTailQ, ps.interTail, ps.okN, ps.n, ps.failed, ps.lateP99)
		return ps.meetsSLO()
	}
	i, step, up, passed := ladderStart, ladderStep, true, false
	var visited []int
	for p := 0; p < ladderProbes; p++ {
		visited = append(visited, i)
		ok := meets(serveLadder[i])
		passed = passed || ok
		if ok != up && step > 1 {
			step /= 2
		}
		up = ok
		if ok {
			i = min(i+step, len(serveLadder)-1)
		} else {
			i = max(i-step, 0)
		}
	}
	sloQPS := 0.0
	if passed {
		settled := visited[len(visited)-ladderSettle:]
		sum := 0
		for _, v := range settled {
			sum += v
		}
		sloQPS = serveLadder[sum/len(settled)]
	}

	if cfg.trace {
		layers, err := traceServe(cfg, ref)
		if err != nil {
			return nil, err
		}
		layers["serve.interactive_tail_ms"] = rs.interTail
		layers["serve.shed_ratio"] = ratio(float64(rs.shed+ladderShed), float64(rs.n+ladderN))
		layers["serve.batch_mean_size"] = ratio(float64(rs.batchMembers), float64(rs.okN))
		layers["serve.batched_ratio"] = ratio(float64(rs.batched), float64(rs.okN))
		layers["kcache.hit_ratio"] = ratio(float64(rs.hits), float64(rs.okN))
		layers["loadgen.late_tail_ms"] = rs.lateP99
		layers["failed_ratio"] = ratio(float64(out.failed), float64(out.attempted))
		out.layers = layers
		return out, nil
	}
	out.e2e = map[string]float64{
		"setup_s": setupS,
		// Answers per second of the CPU time the process spent in the
		// reference phase: the rate the server would sustain on one
		// core, set by how much work each request costs it rather than
		// by the rate the generator offers.
		"ops_per_s":  ratio(float64(rs.okN), refCPU.Seconds()),
		"op_p50_ms":  rs.p50,
		"op_tail_ms": rs.tail,
		"slo_qps":    sloQPS,
		"sim_ms":     rs.simNs / 1e6,
		"micro_ops":  float64(rs.uops),
		// At the reference rate: the ladder's overload rungs would make
		// the peak depend on how far the search climbed.
		"peak_rss_mb": rssMB,
	}
	return out, nil
}

// traceServe replays the reference phase's request log through the
// library calls the handler makes — the compile for requests that missed
// the cache, the transpose and single-subarray run or the verification,
// and the JSON encode of the response — with a span around each.
// serve.wait_ms is each request's measured latency minus that service
// time: queueing, batch-window wait and everything else outside the
// replayed calls.
func traceServe(cfg config, ref []*sentReq) (map[string]float64, error) {
	tr := newTracer()
	layers := zeroLayers()
	var (
		ct                                     compileTotals
		sum                                    execLayers
		compileT, runT, verifyT, waits, encode []float64
		runUntraced, runReplay                 time.Duration
		runs                                   int
		scratch                                = new(codegen.Scratch)
		kernels                                = map[string]*execKernel{}
	)
	// The hot kernels were decoded by their warm-up runs; decode them
	// before the replay too, so only misses pay for decoding.
	for _, s := range ref {
		if !s.miss {
			if _, ok := kernels[s.req.Source]; !ok {
				k, err := chopper.Compile(s.req.Source, serveOpts(s.class))
				if err != nil {
					return nil, err
				}
				ek := newExecKernel(k)
				ek.decode(newTracer(), -1, 0)
				kernels[s.req.Source] = ek
			}
		}
	}
	n := 0
	for op, s := range ref {
		if !s.ok {
			continue
		}
		n++
		root := tr.begin("serve."+s.kind, -1, op)
		var service time.Duration
		ek := kernels[s.req.Source]
		if s.resp.Cache != "hit" {
			job := &compileJob{name: s.hot.name + "/miss", src: s.req.Source, opts: serveOpts(s.class)}
			t0 := time.Now()
			k, err := job.compile()
			u := time.Since(t0)
			if err != nil {
				return nil, err
			}
			l, err := replayCompile(tr, op, job, scratch)
			if err != nil {
				return nil, fmt.Errorf("replay compile %s: %w", job.name, err)
			}
			if err := checkCompileFidelity(job, k, l); err != nil {
				return nil, err
			}
			if len(k.Prog().Ops) != s.resp.MicroOps {
				return nil, fmt.Errorf("replay of %s compiled %d micro-ops, the server %d", job.name, len(k.Prog().Ops), s.resp.MicroOps)
			}
			ct.addTimes(l, u)
			ct.addCounts(l)
			compileT = append(compileT, ms(l.total()))
			service += l.total()
			if ek == nil {
				ek = newExecKernel(k)
				kernels[s.req.Source] = ek
			}
		}
		switch s.kind {
		case "run":
			t0 := time.Now()
			if _, err := ek.k.Run(s.req.Inputs, s.lanes); err != nil {
				return nil, err
			}
			runUntraced += time.Since(t0)
			t1 := time.Now()
			outs, timeNs, l, err := replayRows(tr, root, op, ek, s.req.Inputs, s.lanes)
			r := time.Since(t1)
			if err != nil {
				return nil, err
			}
			if !sameVals(s.resp.Outputs, outs) || timeNs != s.resp.TimeNs {
				return nil, fmt.Errorf("replay of a %s run diverged from the server's answer", s.hot.name)
			}
			runReplay += r
			runs++
			sum.scatter += l.scatter
			sum.gather += l.gather
			sum.decode += l.decode
			sum.exec += l.exec
			sum.simOps += l.simOps
			d := l.scatter + l.decode + l.exec + l.gather
			runT = append(runT, ms(d))
			service += d
		case "verify":
			sp := tr.begin("verify", root, op)
			err := ek.k.VerifyCtx(nil, s.req.Trials, s.req.Seed, 1)
			d := tr.end(sp)
			if err != nil {
				return nil, err
			}
			verifyT = append(verifyT, ms(d))
			service += d
		}
		sp := tr.begin("serve.encode", root, op)
		if err := jsonRoundTrips(s.req, s.resp); err != nil {
			return nil, err
		}
		e := tr.end(sp)
		encode = append(encode, ms(e))
		service += e
		tr.end(root)
		waits = append(waits, ms(s.latency-service))
	}
	ct.fill(layers, true)
	// Compile-layer times are per request, like every other layer here.
	if ct.n > 0 && n > 0 {
		for _, name := range []string{"dsl.parse_ms", "typecheck.check_ms", "dfg.build_ms", "narrow.run_ms",
			"bitslice.lower_ms", "logic.legalize_ms", "codegen.generate_ms", "baseline.compile_ms", "compile.other_ms"} {
			layers[name] *= float64(ct.n) / float64(n)
		}
	}
	per := func(d time.Duration) float64 { return ratio(ms(d), float64(n)) }
	layers["transpose.scatter_ms"] = per(sum.scatter)
	layers["transpose.gather_ms"] = per(sum.gather)
	layers["sim.decode_ms"] = per(sum.decode)
	layers["sim.exec_ms"] = per(sum.exec)
	layers["sim.ops"] = float64(sum.simOps)
	layers["serve.compile_p50_ms"] = quantile(compileT, 0.5)
	layers["serve.run_p50_ms"] = quantile(runT, 0.5)
	layers["serve.verify_p50_ms"] = quantile(verifyT, 0.5)
	layers["serve.wait_ms"] = mean(waits)
	layers["serve.encode_ms"] = mean(encode)
	layers["trace.overhead_ms"] = ratio(ms(runReplay-runUntraced), float64(runs))
	if err := checkReconciled("serve-mix", runs, runUntraced, runReplay); err != nil {
		return nil, err
	}
	return layers, tr.write(cfg.traceOut)
}

// jsonRoundTrips does the JSON work one request costs end to end: the
// client encodes the request and the handler decodes it, the handler
// encodes the response and the client decodes it.
func jsonRoundTrips(req *serve.Request, resp *serve.Response) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, new(serve.Request)); err != nil {
		return err
	}
	if body, err = json.Marshal(resp); err != nil {
		return err
	}
	return json.Unmarshal(body, new(serve.Response))
}

// serveOpts are the options chopperd compiles a request of the given
// class with (default target and opt level, the class's budget).
func serveOpts(class int) chopper.Options {
	o := fullOpts(chopper.Ambit, dram.DefaultGeometry())
	o.Budget = serve.DefaultClassConfig(serve.Class(class)).Budget
	return o
}
