package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one metric and its unit. deterministic marks metrics
// that must repeat exactly across runs of the same code, at any worker
// count (simulated times and counts); the benchmark's tests hold them to
// that on every workload that produces them.
type metricSpec struct {
	name, unit    string
	deterministic bool
}

// endToEndMetrics are what a user of the system sees. Every workload
// measures every one of them; README.md says what each means per
// workload.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", false},
	{"op_p50_ms", "ms", false},
	{"op_tail_ms", "ms", false},
	{"slo_qps", "1/s", false},
	{"sim_ms", "ms-simulated", true},
	{"micro_ops", "count", true},
	{"peak_rss_mb", "MB", false},
}

// perLayerMetrics come from a traced run. Host times are per-operation
// means of the layer's wall time; counts and simulated times are totals
// over one pass of the workload's fixed kernel set. A layer a workload
// bypasses reads 0 there.
var perLayerMetrics = []metricSpec{
	// Front-end and middle-end: host ms per compile.
	{"dsl.parse_ms", "ms", false},
	{"typecheck.check_ms", "ms", false},
	{"dfg.build_ms", "ms", false},
	{"narrow.run_ms", "ms", false},
	{"bitslice.lower_ms", "ms", false},
	{"logic.legalize_ms", "ms", false},
	{"codegen.generate_ms", "ms", false},
	{"baseline.compile_ms", "ms", false},
	{"compile.other_ms", "ms", false},
	// Compiler work counts over the kernel set.
	{"dfg.values", "count", true},
	{"narrow.live_bits_ratio", "ratio", true},
	{"bitslice.gates", "count", true},
	{"logic.gates", "count", true},
	{"codegen.micro_ops", "count", true},
	{"codegen.max_live_rows", "count", true},
	{"codegen.spill_outs", "count", true},
	{"codegen.stores_elided", "count", true},
	{"codegen.const_copies", "count", true},
	{"baseline.micro_ops", "count", true},
	// Execution: host ms per operation, counts per pass.
	{"transpose.scatter_ms", "ms", false},
	{"transpose.gather_ms", "ms", false},
	{"sim.decode_ms", "ms", false},
	{"sim.exec_ms", "ms", false},
	{"sim.ops", "count", true},
	{"vircoe.emit_ms", "ms", false},
	{"vircoe.commands", "count", true},
	{"vircoe.placed_mb", "MB", true},
	{"dram.replay_ms", "ms", false},
	{"dram.commands", "count", true},
	{"tiled.other_ms", "ms", false},
	// Simulated device time per pass.
	{"dram.compute_ns", "ns-simulated", true},
	{"dram.bus_ns", "ns-simulated", true},
	{"dram.ssd_ns", "ns-simulated", true},
	{"hostmodel.transfer_ns", "ns-simulated", true},
	{"hostmodel.overlap_ns", "ns-simulated", true},
	// chopperd.
	{"serve.compile_p50_ms", "ms", false},
	{"serve.run_p50_ms", "ms", false},
	{"serve.verify_p50_ms", "ms", false},
	{"serve.interactive_tail_ms", "ms", false},
	{"serve.wait_ms", "ms", false},
	{"serve.encode_ms", "ms", false},
	{"serve.shed_ratio", "ratio", false},
	{"serve.batch_mean_size", "count", false},
	{"serve.batched_ratio", "ratio", false},
	{"kcache.hit_ratio", "ratio", false},
	{"loadgen.late_tail_ms", "ms", false},
	// Whole run.
	{"failed_ratio", "ratio", false},
	{"trace.overhead_ms", "ms", false},
}

// zeroLayers returns every per-layer metric at 0, the reading of a layer
// the workload bypasses.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	for _, s := range perLayerMetrics {
		m[s.name] = 0
	}
	return m
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] {
		return s[lo] // also keeps +Inf from turning into NaN
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM);
// off Linux it falls back to the Go runtime's total obtained memory.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeSetup runs setup reps times (once in short mode) and returns the
// last result with the median wall time in seconds: set-up cost is a
// metric of its own, and the median of several keeps one slow repetition
// from moving it.
func timeSetup[T any](cfg config, reps int, setup func() (T, error)) (T, float64, error) {
	if cfg.short {
		reps = 1
	}
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			// Drop the previous repetition's garbage so each one starts
			// from the same heap.
			var zero T
			last = zero
			runtime.GC()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, quantile(times, 0.5), nil
}
