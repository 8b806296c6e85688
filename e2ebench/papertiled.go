package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"chopper"
	"chopper/internal/codegen"
	"chopper/internal/dfg"
	"chopper/internal/dram"
	"chopper/internal/perfbench"
	"chopper/internal/pool"
	"chopper/internal/workloads"
)

// paper-tiled: the paper's end-to-end job. The four small Table II
// kernels on all three targets at the default (full) optimization level,
// plus DenseNet-16 compiled for a subarray with fewer data rows than its
// live set so code generation spills, each run with RunTiled over
// tiledLanes lanes on perfbench.TiledGeometry(4): 16 tiles, 4 channel
// shards. All compiles happen in set-up; the timed loop only executes.
const (
	tiledLanes = 8192
	// spillRowsPerSub leaves DenseNet-16 46 data rows for a live set of
	// 124, so codegen spills (the Fig. 11 regime).
	spillRowsPerSub = 64
	// tiledTailQ is paper-tiled's op_tail_ms percentile: a 20 s run makes
	// 150 to 250 calls on two cores, so p90 has at least fifteen samples
	// beyond it.
	tiledTailQ = 0.90
	// tiledSLOms is the per-call latency limit slo_qps is judged against.
	tiledSLOms = 2000
	// tiledSetups is how many times set-up runs; setup_s is the median.
	// One set-up takes well under a second, so the repetitions cost
	// little and steady the median on a machine whose speed wanders.
	tiledSetups = 9
)

var (
	paperKernels = []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"}
	targets      = []chopper.Target{chopper.Ambit, chopper.ELP2IM, chopper.SIMDRAM}
)

type tiledCase struct {
	name   string
	job    *compileJob
	ek     *execKernel
	inputs map[string][][]uint64
	// want holds the dfg.Graph.Eval reference outputs, per lane.
	want map[string][][]uint64
}

// tiledJobs lists the kernel set. short keeps one target.
func tiledJobs(short bool) []*compileJob {
	tgts := targets
	if short {
		tgts = targets[:1]
	}
	var jobs []*compileJob
	for _, wl := range paperKernels {
		spec, _ := workloads.Get(wl)
		for _, t := range tgts {
			jobs = append(jobs, &compileJob{
				name: fmt.Sprintf("%s/%v", wl, t), src: spec.Src,
				opts: fullOpts(t, perfbench.TiledGeometry(4)),
			})
		}
	}
	spec, _ := workloads.Get("DenseNet-16")
	geom := perfbench.TiledGeometry(4)
	geom.RowsPerSub = spillRowsPerSub
	return append(jobs, &compileJob{name: "DenseNet-16/ambit/spill", src: spec.Src, opts: fullOpts(chopper.Ambit, geom)})
}

// fullOpts spells out every option Compile would otherwise default, so a
// traced replay needs no knowledge of the library's defaults.
func fullOpts(t chopper.Target, geom dram.Geometry) chopper.Options {
	return chopper.Options{Target: t, Geometry: geom}.WithOpt(chopper.OptFull)
}

// compileTiled is paper-tiled's timed set-up: it compiles the kernel set.
func compileTiled(short bool) ([]*tiledCase, error) {
	var cases []*tiledCase
	for _, job := range tiledJobs(short) {
		k, err := job.compile()
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", job.name, err)
		}
		if job.opts.Geometry.RowsPerSub == spillRowsPerSub && k.Stats().SpillOuts == 0 {
			return nil, fmt.Errorf("%s does not spill", job.name)
		}
		cases = append(cases, &tiledCase{name: job.name, job: job, ek: newExecKernel(k)})
	}
	return cases, nil
}

// tiledReferences draws the seeded inputs and computes their reference
// outputs with dfg.Graph.Eval: the benchmark's own oracle, outside the
// timed set-up. Cases of one source share inputs and references.
func tiledReferences(cases []*tiledCase, seed int64) error {
	refs := map[string]*tiledCase{}
	for i, c := range cases {
		if prev, ok := refs[c.job.src]; ok {
			c.inputs, c.want = prev.inputs, prev.want
			continue
		}
		k := c.ek.k
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
		c.inputs = wideInputs(rng, k.Inputs, tiledLanes)
		var err error
		if c.want, err = evalWide(k.Graph, k.Inputs, k.Outputs, c.inputs, tiledLanes); err != nil {
			return fmt.Errorf("reference for %s: %w", c.name, err)
		}
		refs[c.job.src] = c
	}
	return nil
}

// wideInputs draws one limb-slice per lane for every operand.
func wideInputs(rng *rand.Rand, specs []chopper.IOSpec, lanes int) map[string][][]uint64 {
	in := make(map[string][][]uint64, len(specs))
	for _, op := range specs {
		vals := laneSlices(op.Width, lanes)
		for _, v := range vals {
			for i := range v {
				v[i] = rng.Uint64()
			}
			if r := op.Width % 64; r != 0 {
				v[len(v)-1] &= (uint64(1) << uint(r)) - 1
			}
		}
		in[op.Name] = vals
	}
	return in
}

// laneSlices returns one limb-slice per lane, all cut from one backing
// array: the benchmark's own data then costs the garbage collector one
// object per operand instead of one per lane, and adds little to the
// collection work the measured calls pay for.
func laneSlices(width, lanes int) [][]uint64 {
	limbs := (width + 63) / 64
	backing := make([]uint64, limbs*lanes)
	vals := make([][]uint64, lanes)
	for l := range vals {
		vals[l] = backing[l*limbs : (l+1)*limbs : (l+1)*limbs]
	}
	return vals
}

// evalWide computes the reference outputs with dfg.Graph.Eval, lane by
// lane, fanned out over every worker.
func evalWide(g *dfg.Graph, ins, outs []chopper.IOSpec, inputs map[string][][]uint64, lanes int) (map[string][][]uint64, error) {
	want := make(map[string][][]uint64, len(outs))
	for _, o := range outs {
		want[o.Name] = laneSlices(o.Width, lanes)
	}
	// Workers write disjoint lanes of the preallocated slices.
	workers := pool.Size(0)
	err := pool.Run(workers, workers, func(w int) error {
		for l := w; l < lanes; l += workers {
			args := make(map[string]*big.Int, len(ins))
			for _, in := range ins {
				args[in.Name] = limbsToBig(inputs[in.Name][l])
			}
			got, err := g.Eval(args)
			if err != nil {
				return err
			}
			for _, o := range outs {
				copy(want[o.Name][l], bigToLimbs(got[o.Name], o.Width))
			}
		}
		return nil
	})
	return want, err
}

func limbsToBig(limbs []uint64) *big.Int {
	v := new(big.Int)
	for i := len(limbs) - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(limbs[i]))
	}
	return v
}

func bigToLimbs(v *big.Int, width int) []uint64 {
	limbs := make([]uint64, (width+63)/64)
	t := new(big.Int).Set(v)
	mask := new(big.Int).SetUint64(^uint64(0))
	for i := range limbs {
		limbs[i] = new(big.Int).And(t, mask).Uint64()
		t.Rsh(t, 64)
	}
	return limbs
}

func sameWide(want, got map[string][][]uint64) bool {
	if len(want) != len(got) {
		return false
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			return false
		}
		for l := range w {
			if !slices.Equal(w[l], g[l]) {
				return false
			}
		}
	}
	return true
}

func runPaperTiled(cfg config) (*outcome, error) {
	cases, setupS, err := timeSetup(cfg, tiledSetups, func() ([]*tiledCase, error) { return compileTiled(cfg.short) })
	if err != nil {
		return nil, err
	}
	if err := tiledReferences(cases, cfg.seed); err != nil {
		return nil, err
	}
	out := &outcome{}
	// Warm-up, untimed: each kernel decodes its program on its first run
	// and the run pools fill. The warm-up results are the simulated
	// record every later call must repeat exactly.
	first := make([]*chopper.TiledResult, len(cases))
	for i, c := range cases {
		res, err := c.ek.k.RunTiled(c.inputs, tiledLanes)
		out.attempted++
		if err != nil || !sameWide(c.want, res.Outputs) {
			out.failed++
			continue
		}
		first[i] = res
	}
	// Start timing from a collected heap, not from set-up's garbage.
	runtime.GC()
	if cfg.trace {
		return tracePaperTiled(cfg, cases, first, out)
	}

	var lat []float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		for i, c := range cases {
			t0 := time.Now()
			res, err := c.ek.k.RunTiled(c.inputs, tiledLanes)
			d := time.Since(t0)
			out.attempted++
			if err != nil || first[i] == nil || !sameWide(c.want, res.Outputs) || res.EndToEndNs != first[i].EndToEndNs {
				out.failed++
				continue
			}
			lat = append(lat, ms(d))
		}
	}
	var simNs float64
	var uops int
	for i, c := range cases {
		if first[i] != nil {
			simNs += first[i].EndToEndNs
		}
		uops += len(c.ek.k.Prog().Ops)
	}
	out.e2e = closedLoopMetrics(lat, tiledTailQ, tiledSLOms)
	out.e2e["setup_s"] = setupS
	out.e2e["sim_ms"] = simNs / 1e6
	out.e2e["micro_ops"] = float64(uops)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	return out, nil
}

// closedLoopMetrics summarizes one client issuing operations back to back.
// Its completion rate is the highest rate it sustains, so slo_qps is that
// rate when the tail meets the latency limit and 0 when it does not.
func closedLoopMetrics(lat []float64, tailQ, sloMs float64) map[string]float64 {
	var busy float64
	for _, x := range lat {
		busy += x
	}
	m := map[string]float64{
		"ops_per_s":  ratio(float64(len(lat)), busy/1e3),
		"op_p50_ms":  quantile(lat, 0.5),
		"op_tail_ms": quantile(lat, tailQ),
	}
	m["slo_qps"] = 0
	if m["op_tail_ms"] <= sloMs {
		m["slo_qps"] = m["ops_per_s"]
	}
	return m
}

// tracePaperTiled times each RunTiled call untraced and replays it
// traced, alternating which runs first, and checks the replay reproduces
// the call exactly.
func tracePaperTiled(cfg config, cases []*tiledCase, first []*chopper.TiledResult, out *outcome) (*outcome, error) {
	tr := newTracer()
	layers := zeroLayers()
	var ct compileTotals
	scratch := new(codegen.Scratch)
	for i, c := range cases {
		l, err := replayCompile(tr, -1-i, c.job, scratch)
		if err != nil {
			return nil, fmt.Errorf("replay compile %s: %w", c.name, err)
		}
		if err := checkCompileFidelity(c.job, c.ek.k, l); err != nil {
			return nil, err
		}
		ct.addCounts(l)
	}
	ct.fill(layers, false)

	var sum execLayers
	var untraced, replayed time.Duration
	var calls int
	var dev struct {
		commands                             int
		compute, bus, ssd, transfer, overlap float64
	}
	firstTiming := make([]string, len(cases))
	for i, f := range first {
		if f != nil {
			firstTiming[i] = digestTiled(f).timing
		}
	}
	start := time.Now()
	op := 0
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		for i, c := range cases {
			var (
				want, got tiledDigest
				u, r      time.Duration
				l         *execLayers
				ok        bool
				rerr      error
			)
			untracedCall := func() {
				t0 := time.Now()
				res, err := c.ek.k.RunTiled(c.inputs, tiledLanes)
				u = time.Since(t0)
				if ok = err == nil && first[i] != nil && sameWide(c.want, res.Outputs); ok {
					want = digestTiled(res)
					ok = want.timing == firstTiming[i]
				}
			}
			replay := func() {
				t0 := time.Now()
				var res *chopper.TiledResult
				res, l, rerr = replayTiled(tr, op, c.ek, c.inputs, tiledLanes)
				r = time.Since(t0)
				if rerr == nil {
					got = digestTiled(res)
				}
			}
			// Alternate which goes first, so neither is always the one
			// that collects the other's garbage.
			if op%2 == 0 {
				untracedCall()
				replay()
			} else {
				replay()
				untracedCall()
			}
			op++
			out.attempted++
			if !ok {
				out.failed++
				continue
			}
			if rerr != nil {
				return nil, fmt.Errorf("replay %s: %w", c.name, rerr)
			}
			if err := checkTiledFidelity(c.name, want, got); err != nil {
				return nil, err
			}
			calls++
			untraced += u
			replayed += r
			sum.scatter += l.scatter
			sum.gather += l.gather
			sum.decode += l.decode
			sum.exec += l.exec
			sum.emit += l.emit
			sum.replay += l.replay
			if round == 0 {
				sum.simOps += l.simOps
				sum.commands += l.commands
				sum.placedBytes += l.placedBytes
				// Every call matches the warm-up record (checked below).
				f := first[i]
				dev.commands += f.Stats.Ops + f.Stats.Transfers
				dev.compute += f.Stats.ComputeNs
				dev.bus += f.Stats.BusBusyNs
				dev.ssd += f.Stats.SSDNs
				dev.transfer += f.TransferNs
				dev.overlap += f.OverlapNs
			}
		}
	}
	per := func(d time.Duration) float64 { return ratio(ms(d), float64(calls)) }
	layers["transpose.scatter_ms"] = per(sum.scatter)
	layers["transpose.gather_ms"] = per(sum.gather)
	layers["sim.decode_ms"] = per(sum.decode)
	layers["sim.exec_ms"] = per(sum.exec)
	layers["vircoe.emit_ms"] = per(sum.emit)
	layers["dram.replay_ms"] = per(sum.replay)
	layers["tiled.other_ms"] = per(untraced - sum.scatter - sum.gather - sum.decode - sum.exec - sum.emit - sum.replay)
	layers["trace.overhead_ms"] = per(replayed - untraced)
	layers["sim.ops"] = float64(sum.simOps)
	layers["vircoe.commands"] = float64(sum.commands)
	layers["vircoe.placed_mb"] = float64(sum.placedBytes) / (1 << 20)
	// Commands the timing engines issued, summed over the shards.
	layers["dram.commands"] = float64(dev.commands)
	layers["dram.compute_ns"] = dev.compute
	layers["dram.bus_ns"] = dev.bus
	layers["dram.ssd_ns"] = dev.ssd
	layers["hostmodel.transfer_ns"] = dev.transfer
	layers["hostmodel.overlap_ns"] = dev.overlap
	layers["failed_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	if err := checkReconciled("paper-tiled", calls, untraced, replayed); err != nil {
		return nil, err
	}
	out.layers = layers
	return out, tr.write(cfg.traceOut)
}

// reconcileTol bounds how far a traced replay's op time may drift from
// the untraced call it mirrors. Per-layer times plus the *.other_ms
// remainder add up to the untraced op time by construction; this bound
// is what makes the layer times describe that call.
// The check needs reconcileMinOps operations: over fewer (the tests'
// short mode) one collection pause outweighs the difference it looks for.
const (
	reconcileTol    = 0.25
	reconcileMinOps = 20
)

func checkReconciled(workload string, ops int, untraced, replayed time.Duration) error {
	if ops < reconcileMinOps {
		return nil
	}
	untracedMs, replayMs := ms(untraced)/float64(ops), ms(replayed)/float64(ops)
	if d := (replayMs - untracedMs) / untracedMs; d > reconcileTol || d < -reconcileTol {
		return fmt.Errorf("%s: traced replay took %.3f ms per op, the untraced call %.3f ms: outside the %.0f%% reconciliation tolerance",
			workload, replayMs, untracedMs, 100*reconcileTol)
	}
	return nil
}
