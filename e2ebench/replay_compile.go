package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"chopper"
	"chopper/internal/baseline"
	"chopper/internal/bitslice"
	"chopper/internal/codegen"
	"chopper/internal/dfg"
	"chopper/internal/dsl"
	"chopper/internal/isa"
	"chopper/internal/logic"
	"chopper/internal/narrow"
	"chopper/internal/obs"
	"chopper/internal/pool"
	"chopper/internal/typecheck"
)

// compileJob is one compile the benchmark performs: a source, fully
// spelled-out options (no field left for the library to default, so the
// traced replay sees exactly what Compile saw) and the pipeline.
type compileJob struct {
	name     string
	src      string
	opts     chopper.Options
	baseline bool
}

// compile is the untraced public call.
func (j *compileJob) compile() (*chopper.Kernel, error) {
	if j.baseline {
		return chopper.CompileBaseline(j.src, j.opts)
	}
	return chopper.Compile(j.src, j.opts)
}

// compileLayers is what one traced compile replay measured: host time per
// layer and the work each layer produced.
type compileLayers struct {
	parse, check, build, narrow, bitslice, legalize, codegen, baseline time.Duration

	values, bitsliceGates, logicGates                      int
	declaredBits, liveBits                                 int
	microOps, maxLiveRows, spillOuts, storesElided, consts int
	baselineOps                                            int

	prog *isa.Program
}

func (l *compileLayers) total() time.Duration {
	return l.parse + l.check + l.build + l.narrow + l.bitslice + l.legalize + l.codegen + l.baseline
}

// replayCompile re-runs the pipeline Compile (or CompileBaseline) runs
// for job, one public layer call at a time, recording a span around
// each: dsl.ParseAndExpand -> typecheck.Check -> dfg.BuildNode ->
// narrow.Run -> bitslice.Lower -> logic.Legalize -> codegen.Generate, or
// baseline.Generate after dfg for the baseline pipeline. The library's
// own checks between passes (validation, panic isolation, the
// degradation ladder) are not replayed; they are what compile.other_ms
// measures.
func replayCompile(tr *tracer, op int, job *compileJob, scratch *codegen.Scratch) (*compileLayers, error) {
	l := &compileLayers{}
	root := tr.begin("compile", -1, op)
	defer tr.end(root)
	opts := job.opts
	dRows := opts.Geometry.DRows()

	sp := tr.begin("dsl.parse", root, op)
	prog, err := dsl.ParseAndExpand(job.src)
	l.parse = tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("typecheck.check", root, op)
	checked, err := typecheck.Check(prog)
	l.check = tr.end(sp)
	if err != nil {
		return nil, err
	}
	entry := prog.Entry()
	sp = tr.begin("dfg.build", root, op)
	graph, err := dfg.BuildNode(checked, entry.Name)
	l.build = tr.end(sp)
	if err != nil {
		return nil, err
	}
	l.values = len(graph.Values)

	if job.baseline {
		sp = tr.begin("baseline.compile", root, op)
		res, err := baseline.Generate(graph, baseline.Options{Arch: opts.Target, DRows: dRows})
		l.baseline = tr.end(sp)
		if err != nil {
			return nil, err
		}
		l.prog = res.Prog
		l.baselineOps = len(res.Prog.Ops)
		return l, nil
	}

	opt := opts.Opt
	if entry.HasAttr("noreuse") && opt == obs.Reuse {
		opt = obs.Schedule
	}
	lower := graph
	if opts.Narrow != chopper.NarrowOff {
		sp = tr.begin("narrow.run", root, op)
		ng, st, err := narrow.Run(graph, narrow.Opts{})
		l.narrow = tr.end(sp)
		// Compile falls back to the declared-width graph when the pass
		// declines; so does the replay.
		if err == nil {
			lower = ng
			l.declaredBits, l.liveBits = st.DeclaredBits, st.LiveBits
		}
	}
	// Compile bit-slices on every worker unless a cache or a budget is
	// attached.
	workers := 1
	if opts.Cache == nil && opts.Budget == (chopper.Budget{}) {
		workers = pool.Size(0)
	}
	sp = tr.begin("bitslice.lower", root, op)
	net, err := bitslice.Lower(lower, bitslice.Options{Fold: opt.HasReuse(), Workers: workers})
	l.bitslice = tr.end(sp)
	if err != nil {
		return nil, err
	}
	l.bitsliceGates = len(net.Gates)
	sp = tr.begin("logic.legalize", root, op)
	leg, err := logic.Legalize(net, opts.Target, logic.BuilderOptions{Fold: opt.HasReuse(), CSE: true})
	if err == nil {
		leg = leg.DCE()
	}
	l.legalize = tr.end(sp)
	if err != nil {
		return nil, err
	}
	l.logicGates = len(leg.Gates)
	sp = tr.begin("codegen.generate", root, op)
	code, err := codegen.Generate(leg, codegen.Options{Arch: opts.Target, Variant: opt, DRows: dRows, Scratch: scratch})
	l.codegen = tr.end(sp)
	if err != nil {
		return nil, err
	}
	l.prog = code.Prog
	st := code.Stats
	l.microOps, l.maxLiveRows, l.spillOuts = len(code.Prog.Ops), st.MaxLiveRows, st.SpillOuts
	l.storesElided, l.consts = st.StoresElided, st.ConstCopies
	return l, nil
}

// checkCompileFidelity fails unless the replay emitted exactly the program
// the untraced call did: same micro-op count, same Program.Format digest.
// Otherwise the replay's per-layer numbers would describe another program.
func checkCompileFidelity(job *compileJob, k *chopper.Kernel, l *compileLayers) error {
	want, got := k.Prog(), l.prog
	if len(want.Ops) != len(got.Ops) {
		return fmt.Errorf("replay of %s emitted %d micro-ops, Compile emitted %d", job.name, len(got.Ops), len(want.Ops))
	}
	if sha256.Sum256([]byte(want.Format())) != sha256.Sum256([]byte(got.Format())) {
		return fmt.Errorf("replay of %s emitted a different program than Compile", job.name)
	}
	return nil
}

// compileTotals accumulates compile replays into the per-layer metrics.
type compileTotals struct {
	n                      int
	parse, check, build    time.Duration
	narrow, bitslice, leg  time.Duration
	codegen, baseline, all time.Duration
	// untraced is the summed wall time of the untraced calls the replays
	// mirror; compile.other_ms is its per-compile excess over the layers.
	untraced time.Duration

	values, bitsliceGates, logicGates, declaredBits, liveBits int
	microOps, maxLiveRows, spillOuts, storesElided, consts    int
	baselineOps                                               int
}

// addTimes adds one replay's host times, against the untraced call's.
func (c *compileTotals) addTimes(l *compileLayers, untraced time.Duration) {
	c.n++
	c.parse += l.parse
	c.check += l.check
	c.build += l.build
	c.narrow += l.narrow
	c.bitslice += l.bitslice
	c.leg += l.legalize
	c.codegen += l.codegen
	c.baseline += l.baseline
	c.all += l.total()
	c.untraced += untraced
}

// addCounts adds one replay's work counts (counted once per kernel of
// the workload's fixed set, so the totals repeat exactly).
func (c *compileTotals) addCounts(l *compileLayers) {
	c.values += l.values
	c.bitsliceGates += l.bitsliceGates
	c.logicGates += l.logicGates
	c.declaredBits += l.declaredBits
	c.liveBits += l.liveBits
	c.microOps += l.microOps
	c.maxLiveRows += l.maxLiveRows
	c.spillOuts += l.spillOuts
	c.storesElided += l.storesElided
	c.consts += l.consts
	c.baselineOps += l.baselineOps
}

// fill writes the compile layers into m. With timed false only the
// counts are written (the workload compiles outside its timed loop).
func (c *compileTotals) fill(m map[string]float64, timed bool) {
	if timed && c.n > 0 {
		per := func(d time.Duration) float64 { return ms(d) / float64(c.n) }
		m["dsl.parse_ms"] = per(c.parse)
		m["typecheck.check_ms"] = per(c.check)
		m["dfg.build_ms"] = per(c.build)
		m["narrow.run_ms"] = per(c.narrow)
		m["bitslice.lower_ms"] = per(c.bitslice)
		m["logic.legalize_ms"] = per(c.leg)
		m["codegen.generate_ms"] = per(c.codegen)
		m["baseline.compile_ms"] = per(c.baseline)
		m["compile.other_ms"] = per(c.untraced - c.all)
	}
	m["dfg.values"] = float64(c.values)
	// 1 means no declared bit was removed (also when nothing ran the
	// narrowing pass).
	m["narrow.live_bits_ratio"] = 1
	if c.declaredBits > 0 {
		m["narrow.live_bits_ratio"] = float64(c.liveBits) / float64(c.declaredBits)
	}
	m["bitslice.gates"] = float64(c.bitsliceGates)
	m["logic.gates"] = float64(c.logicGates)
	m["codegen.micro_ops"] = float64(c.microOps)
	m["codegen.max_live_rows"] = float64(c.maxLiveRows)
	m["codegen.spill_outs"] = float64(c.spillOuts)
	m["codegen.stores_elided"] = float64(c.storesElided)
	m["codegen.const_copies"] = float64(c.consts)
	m["baseline.micro_ops"] = float64(c.baselineOps)
}
