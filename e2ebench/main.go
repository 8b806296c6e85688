// Command e2ebench is the repository's end-to-end benchmark. One process
// runs one named workload and prints, as the last line of its standard
// output, one JSON object with every end-to-end metric (--trace 0) or
// every per-layer metric (--trace 1), after checking every output the
// system produced. See README.md for the workloads, the metrics and how
// each per-layer metric maps onto an end-to-end one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// short shrinks every workload to a smoke-sized sample (tests only).
	short bool
	// traceOut is where a traced run writes its spans ("" skips writing).
	traceOut string
	// lateBound overrides serve-mix's generator-lateness bound (tests
	// only; 0 keeps the workload's stated bound).
	lateBound time.Duration
}

// outcome is what a workload run measured. e2e holds the end-to-end
// metrics of an untraced run, layers the per-layer metrics of a traced
// one.
type outcome struct {
	attempted, failed int
	e2e, layers       map[string]float64
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloadFuncs = map[string]func(config) (*outcome, error){
	"paper-tiled":  runPaperTiled,
	"compile-cold": runCompileCold,
	"serve-mix":    runServeMix,
}

func main() {
	var (
		cfg     config
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-tiled, compile-cold or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 20, "how long the timed loop measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, have %d", trace))
	}
	if seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, have %v", seconds))
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if cfg.trace {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	}
	// All load comes from this one process, on every CPU it may use.
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(os.Stderr, "e2ebench: %s %s/%s, nproc %d, GOMAXPROCS %d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// run executes one workload and assembles its result object.
func run(cfg config) (*result, error) {
	fn, ok := workloadFuncs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: paper-tiled, compile-cold, serve-mix)", cfg.workload)
	}
	out, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	specs, values := endToEndMetrics, out.e2e
	if cfg.trace {
		specs, values = perLayerMetrics, out.layers
	}
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.name)
		}
		if !finite(v) {
			return nil, fmt.Errorf("workload %s measured %s = %v", cfg.workload, m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(values) != len(specs) {
		return nil, fmt.Errorf("workload %s measured %d metrics, the table names %d", cfg.workload, len(values), len(specs))
	}
	return res, nil
}
