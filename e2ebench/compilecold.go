package main

import (
	"fmt"
	"math/rand"
	"time"

	"chopper"
	"chopper/internal/codegen"
	"chopper/internal/dram"
	"chopper/internal/workloads"
)

// compile-cold: the programmability job. One pass compiles a fixed-size
// sample of {16 Table II configs} x {3 targets} x {4 opt levels} x
// {NarrowOff, NarrowSafe}: every (config, target) pair once, at the
// (opt, narrow) cell a Latin assignment gives it, so each pass covers
// every opt level and narrowing mode equally and repeats the same work
// whatever the seed. Each config also compiles through the SIMDRAM
// baseline pipeline. No compile has a kernel cache. The seed sets each
// source's salt (an unused extra node, so no two runs compile the same
// text), the order of each pass and the verification inputs.
const (
	// coldTailQ is compile-cold's op_tail_ms percentile: 20 s of compiling
	// takes about four passes, 256 compiles, so p90 has about twenty-five
	// samples beyond it.
	coldTailQ = 0.90
	// coldSLOms is the per-compile latency limit slo_qps is judged against.
	coldSLOms = 5000
	// coldSetups: set-up takes tens of milliseconds, so its median is
	// taken over many repetitions.
	coldSetups    = 15
	verifyTrials  = 1
	simProbeLanes = 64
)

var (
	optLevels   = []chopper.OptLevel{chopper.OptBitslice, chopper.OptSchedule, chopper.OptReuse, chopper.OptFull}
	narrowModes = []chopper.NarrowMode{chopper.NarrowOff, chopper.NarrowSafe}
)

// coldJobs builds one pass's sample. short keeps one config per domain.
func coldJobs(seed int64, short bool) []*compileJob {
	specs := workloads.All()
	if short {
		specs = nil
		for _, d := range workloads.Domains {
			specs = append(specs, workloads.Build(d, workloads.Configs[d][0]))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	salted := func(src string) string {
		return fmt.Sprintf("node salt_%x(x: u8) returns (y: u8) let y = x; tel\n%s", rng.Uint64(), src)
	}
	geom := dram.DefaultGeometry()
	var jobs []*compileJob
	for c, spec := range specs {
		for t, target := range targets {
			cell := (3*c + t) % (len(optLevels) * len(narrowModes))
			opts := chopper.Options{Target: target, Geometry: geom, Narrow: narrowModes[cell%2]}.WithOpt(optLevels[cell/2])
			jobs = append(jobs, &compileJob{
				name: fmt.Sprintf("%s/%v/%v/%v", spec.Name, target, opts.Opt, opts.Narrow),
				src:  salted(spec.Src), opts: opts,
			})
		}
		jobs = append(jobs, &compileJob{
			name: spec.Name + "/baseline", src: salted(spec.Src), baseline: true,
			opts: fullOpts(chopper.SIMDRAM, geom),
		})
	}
	return jobs
}

// simProbe runs k once on one subarray and returns its simulated
// makespan; a kernel's makespan does not depend on its operand values.
func simProbe(k *chopper.Kernel, rng *rand.Rand) (float64, error) {
	rows := make(map[string][][]uint64, len(k.Inputs))
	for _, in := range k.Inputs {
		r := make([][]uint64, in.Width)
		for b := range r {
			r[b] = []uint64{rng.Uint64()}
		}
		rows[in.Name] = r
	}
	res, err := k.RunRows(rows, simProbeLanes)
	if err != nil {
		return 0, err
	}
	return res.TimeNs, nil
}

func runCompileCold(cfg config) (*outcome, error) {
	jobs, setupS, err := timeSetup(cfg, coldSetups, func() ([]*compileJob, error) {
		jobs := coldJobs(cfg.seed, cfg.short)
		// Warm the compiler's pools, as a long-lived caller would have.
		_, err := jobs[0].compile()
		return jobs, err
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	var (
		lat     []float64
		simNs   float64
		uops    int
		tr      *tracer
		ct      compileTotals
		replay  time.Duration
		scratch = new(codegen.Scratch)
	)
	if cfg.trace {
		tr = newTracer()
	}
	// Whole passes repeat until the timed calls (compiles, and replays in
	// a traced run) have taken --seconds: the checks between them would
	// otherwise eat a third of the run and leave fewer compiles to average
	// the shared machine's wandering speed over.
	var busy time.Duration
	op := 0
	for pass := 0; pass == 0 || busy+replay < cfg.seconds; pass++ {
		for _, i := range rng.Perm(len(jobs)) {
			job := jobs[i]
			t0 := time.Now()
			k, err := job.compile()
			d := time.Since(t0)
			busy += d
			out.attempted++
			if err != nil {
				out.failed++
				continue
			}
			// The output check, outside the timed call.
			if err := k.Verify(verifyTrials, rng.Int63()); err != nil {
				out.failed++
				continue
			}
			lat = append(lat, ms(d))
			if pass == 0 {
				ns, err := simProbe(k, rng)
				if err != nil {
					return nil, fmt.Errorf("run %s: %w", job.name, err)
				}
				simNs += ns
				uops += len(k.Prog().Ops)
			}
			if tr == nil {
				continue
			}
			t1 := time.Now()
			l, err := replayCompile(tr, op, job, scratch)
			replay += time.Since(t1)
			op++
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", job.name, err)
			}
			if err := checkCompileFidelity(job, k, l); err != nil {
				return nil, err
			}
			ct.addTimes(l, d)
			if pass == 0 {
				ct.addCounts(l)
			}
		}
	}
	if tr != nil {
		layers := zeroLayers()
		ct.fill(layers, true)
		n := float64(ct.n)
		layers["trace.overhead_ms"] = ratio(ms(replay-ct.untraced), n)
		layers["failed_ratio"] = ratio(float64(out.failed), float64(out.attempted))
		if err := checkReconciled("compile-cold", ct.n, ct.untraced, replay); err != nil {
			return nil, err
		}
		out.layers = layers
		return out, tr.write(cfg.traceOut)
	}
	out.e2e = closedLoopMetrics(lat, coldTailQ, coldSLOms)
	out.e2e["setup_s"] = setupS
	out.e2e["sim_ms"] = simNs / 1e6
	out.e2e["micro_ops"] = float64(uops)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	return out, nil
}
