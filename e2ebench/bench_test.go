package main

import (
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"runtime"
	"slices"
	"testing"
	"time"

	"chopper"
	"chopper/internal/codegen"
	"chopper/internal/dram"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricTable pins the metric names and their units to BENCHMARK.json.
func TestMetricTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, specs []metricSpec, listed []struct{ Name, Unit string }) {
		if len(specs) != len(listed) {
			t.Errorf("%s: the benchmark measures %d metrics, BENCHMARK.json lists %d", kind, len(specs), len(listed))
			return
		}
		seen := map[string]bool{}
		for i, s := range specs {
			if !metricName.MatchString(s.name) || seen[s.name] {
				t.Errorf("%s: bad or repeated metric name %q", kind, s.name)
			}
			seen[s.name] = true
			if listed[i].Name != s.name || listed[i].Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, listed[i].Name, listed[i].Unit, s.name, s.unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, bench.EndToEnd)
	check("per_layer", perLayerMetrics, bench.PerLayer)
	if len(bench.Workloads) != len(workloadFuncs) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloadFuncs))
	}
	for _, w := range bench.Workloads {
		if workloadFuncs[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// TestMetaMatchesCode holds meta.json's fixed percentiles, limits and
// ladder to the values the benchmark runs with.
func TestMetaMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("meta.json")
	if err != nil {
		t.Fatal(err)
	}
	type workload struct {
		TailPercentile float64 `json:"tail_percentile"`
		SLOLimitMs     float64 `json:"slo_limit_ms"`
		ReferenceQPS   float64 `json:"reference_qps"`
		RefMaxLateness float64 `json:"reference_max_send_lateness_p99_ms"`
		Mix            struct {
			ClassWeights []int          `json:"class_weights"`
			Per20        map[string]int `json:"per_20_requests"`
		}
		SLO struct {
			LatencyLimitMs float64   `json:"latency_limit_ms"`
			MinSuccess     float64   `json:"min_success_share"`
			MaxLatenessMs  float64   `json:"max_send_lateness_p99_ms"`
			Ladder         []float64 `json:"ladder_qps"`
		}
	}
	var meta struct{ Workloads map[string]workload }
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	want := map[string]workload{
		"paper-tiled":  {TailPercentile: 100 * tiledTailQ, SLOLimitMs: tiledSLOms},
		"compile-cold": {TailPercentile: 100 * coldTailQ, SLOLimitMs: coldSLOms},
	}
	for name, w := range want {
		if got := meta.Workloads[name]; got.TailPercentile != w.TailPercentile || got.SLOLimitMs != w.SLOLimitMs {
			t.Errorf("%s: meta.json has p%v and %v ms, the code p%v and %v ms", name, got.TailPercentile, got.SLOLimitMs, w.TailPercentile, w.SLOLimitMs)
		}
	}
	s := meta.Workloads["serve-mix"]
	if s.TailPercentile != 100*serveTailQ || s.ReferenceQPS != serveRefQPS || s.RefMaxLateness != ms(serveLateBound) ||
		s.SLO.LatencyLimitMs != serveSLOms || s.SLO.MinSuccess != serveOKShare || s.SLO.MaxLatenessMs != ms(serveBacklogBound) ||
		!slices.Equal(s.SLO.Ladder, serveLadder) || !slices.Equal(s.Mix.ClassWeights, classWeights) ||
		s.Mix.Per20["miss"] != mixMisses || s.Mix.Per20["verify"] != mixVerifies ||
		s.Mix.Per20["run"] != mixPeriod-mixMisses-mixVerifies {
		t.Errorf("serve-mix: meta.json %+v disagrees with the code", s)
	}
}

// runShort runs one workload in short mode at the given GOMAXPROCS.
func runShort(t *testing.T, workload string, trace bool, procs int) *result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	res, err := run(config{workload: workload, seed: 7, seconds: time.Second, trace: trace, short: true})
	if err != nil {
		t.Fatalf("%s (trace %v, GOMAXPROCS %d): %v", workload, trace, procs, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %v, GOMAXPROCS %d): %d of %d operations failed", workload, trace, procs, res.Failed, res.Attempted)
	}
	return res
}

// TestShortModeDeterminism runs a short mode of every workload, untraced
// and traced, at GOMAXPROCS 1 and at nproc. Every run must measure every
// metric (run rejects one that does not), pass its output checks and, when
// traced, its replay-fidelity and reconciliation checks; every
// deterministic metric must read the same in all of them.
func TestShortModeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	for name := range workloadFuncs {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				specs := endToEndMetrics
				if trace {
					specs = perLayerMetrics
				}
				a := runShort(t, name, trace, 1)
				b := runShort(t, name, trace, runtime.NumCPU())
				for _, s := range specs {
					if s.deterministic && a.Metrics[s.name].Value != b.Metrics[s.name].Value {
						t.Errorf("%s: %v at GOMAXPROCS 1, %v at %d", s.name, a.Metrics[s.name].Value, b.Metrics[s.name].Value, runtime.NumCPU())
					}
				}
			}
		})
	}
}

// TestServeMixGeneratorBehindIsInvalid: a serve-mix run whose generator
// sent later than its bound yields no result at all.
func TestServeMixGeneratorBehindIsInvalid(t *testing.T) {
	res, err := run(config{workload: "serve-mix", seed: 3, seconds: time.Second, short: true, lateBound: time.Nanosecond})
	if !errors.Is(err, errGeneratorBehind) || res != nil {
		t.Fatalf("got result %v, error %v; want no result and errGeneratorBehind", res, err)
	}
}

// TestReplayFidelityChecksCatchDivergence: the fidelity checks reject a
// replay of a different program and a different timing record.
func TestReplayFidelityChecksCatchDivergence(t *testing.T) {
	src := "node main(a: u8, b: u8) returns (z: u8) let z = a * b + a; tel"
	job := &compileJob{name: "mac8", src: src, opts: fullOpts(chopper.Ambit, dram.DefaultGeometry())}
	k, err := job.compile()
	if err != nil {
		t.Fatal(err)
	}
	l, err := replayCompile(newTracer(), 0, job, new(codegen.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCompileFidelity(job, k, l); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}
	other := &compileJob{name: "mac8/bitslice", src: src, opts: job.opts.WithOpt(chopper.OptBitslice)}
	lo, err := replayCompile(newTracer(), 0, other, new(codegen.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if checkCompileFidelity(job, k, lo) == nil {
		t.Error("replay at another opt level passed the compile fidelity check")
	}

	want := &chopper.TiledResult{TimeNs: 10, Outputs: map[string][][]uint64{"z": {{1}}}}
	got := &chopper.TiledResult{TimeNs: 10, Outputs: map[string][][]uint64{"z": {{1}}}}
	if err := checkTiledFidelity("t", digestTiled(want), digestTiled(got)); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	got.Stats.Ops = 1
	if checkTiledFidelity("t", digestTiled(want), digestTiled(got)) == nil {
		t.Error("different engine statistics passed the tiled fidelity check")
	}
	got.Stats.Ops = 0
	got.Outputs["z"][0][0] = 2
	if checkTiledFidelity("t", digestTiled(want), digestTiled(got)) == nil {
		t.Error("different outputs passed the tiled fidelity check")
	}
}
