// Command perfbench is the repository's benchmark. It measures, in one
// process, the two things this repository runs: the offline
// capture-then-predict replay behind every `ntp -run`, and the ntpd
// prediction server at its default configuration under closed-loop
// load. See README.md in this directory for the workloads, the
// metrics and the layer each per-layer metric belongs to.
//
//	bash perfbench/run.sh --workload serve-fleet --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics, and the span dump goes to the -out directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports each of them; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"capture_minstr_per_s", "Minstr/s"},
	{"replay_mtraces_per_s", "Mtraces/s"},
	{"traces_per_s", "1/s"},
	{"rtt_p50_us", "us"},
	{"rtt_p90_us", "us"},
	{"live_heap_mib", "MiB"},
}

// perLayer lists the metrics of single layers, named <layer>.<what>.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"workload.build_ms", "ms"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"trace.ns_per_instr", "ns"},
	{"trace.instrs_per_trace", "count"},
	{"stream.record_ns_per_trace", "ns"},
	{"stream.bytes_per_trace", "B"},
	{"stream.cursor_ns_per_trace", "ns"},
	{"stream.decode_ns_per_trace", "ns"},
	{"stream.setup_ms", "ms"},
	{"predictor.ns_per_round", "ns"},
	{"predictor.alloc_bytes_per_round", "B"},
	{"predictor.miss_pct", "%"},
	{"predictor.bytes_per_session", "B"},
	{"serve.setup_ms", "ms"},
	{"serve.open_us", "us"},
	{"serve.service_us_mean", "us"},
	{"serve.outside_us_mean", "us"},
	{"serve.rtt_p99_us", "us"},
	{"serve.rtt_p999_us", "us"},
	{"serve.rtt_max_us", "us"},
	{"serve.rtt_samples", "count"},
	{"serve.requests", "count"},
	{"serve.failed", "count"},
	{"serve.overload_retries", "count"},
	{"serve.throttled", "count"},
	{"serve.queue_depth_max", "count"},
	{"snapshot.rtt_ms", "ms"},
	{"snapshot.frame_kib", "KiB"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.samples", "count"},
	{"proc.cpu_ns_per_trace", "ns"},
	{"proc.cpu_util", "cores"},
	{"proc.alloc_bytes_per_trace", "B"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.minflt_per_req", "count"},
	{"proc.rss_mib", "MiB"},
	{"proc.sched_lat_p99_us", "us"},
	{"proc.setup_gc_ms", "ms"},
	{"proc.warmup_s", "s"},
	{"proc.warmup_settled", "count"},
	{"proc.gomaxprocs", "count"},
	{"host.nproc", "count"},
	{"host.calib_ns", "ns"},
	{"host.calib_drift_pct", "%"},
	{"host.steal_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

const (
	// calibWindow is how long the calibration kernel runs before and
	// after each run.
	calibWindow = 200 * time.Millisecond
	// Each workload sets up at least setupReps times and for at least
	// setupTime, so that its set-ups sample the machine over a few
	// seconds; setup_s takes their workQ time.
	setupReps = 10
	setupTime = 3 * time.Second
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	out     string // directory for span dumps
}

// phase is one measured stretch of a workload: its end-to-end metrics
// and, when traced, its per-layer metrics.
type phase struct {
	e2e   map[string]float64
	layer map[string]float64
}

func newPhase() *phase {
	return &phase{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// outcome is a workload's whole run: the phase to report, operation
// counts and every correctness failure found.
type outcome struct {
	*phase
	attempted, failed uint64
	problems          []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// A workload sets up once, may be measured more than once, and is
// verified after its last measurement.
type workloadImpl interface {
	// setup builds the inputs and the system under test, several times
	// over, and keeps the last; it fills the set-up metrics of p.
	setup(cfg runConfig, tr *tracer, p *phase) error
	// warmup drives the system until the page-fault rate and the heap
	// settle, then collects garbage; it returns the time spent and
	// whether they settled before its cap.
	warmup() (time.Duration, bool, error)
	// measure drives the system for d and returns the phase's metrics;
	// tr is nil for an untraced phase.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// verify checks every output against its reference and counts the
	// operations attempted and failed over the whole run.
	verify(o *outcome, tr *tracer)
	close()
}

var workloads = map[string]func() workloadImpl{
	"offline-replay": func() workloadImpl { return &offline{} },
	"serve-bulk":     func() workloadImpl { return newServeLoad(bulkSpec) },
	"serve-fleet":    func() workloadImpl { return newServeLoad(fleetSpec) },
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: offline-replay, serve-bulk or serve-fleet")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "seconds to measure")
		traced  = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_out", "directory for span dumps")
		golden  = flag.String("write-golden", "", "record offline-replay's reference counts in this file and exit")
	)
	flag.Parse()
	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1, out: *out}
	o, err := runWorkload(*name, mk(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	defs, values := endToEnd, o.e2e
	if *traced == 1 {
		defs, values = perLayer, o.layer
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted uint64                    `json:"attempted"`
		Failed    uint64                    `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		res.Metrics[d.name] = map[string]any{"value": values[d.name], "unit": d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs set-up, warm-up, the measured phase or phases and
// the verification, with the calibration kernel timed before and
// after. Traced, it measures half the time untraced and half traced,
// and reports the difference as the tracing overhead.
func runWorkload(name string, w workloadImpl, cfg runConfig) (*outcome, error) {
	defer w.close()
	traced := cfg.traced
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%v trace=%v GOMAXPROCS=%d nproc=%d %s\n",
		name, cfg.seed, cfg.seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	calBefore, err := calibrate(calibWindow)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	setup := newPhase()
	if err := w.setup(cfg, tr, setup); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	warm, settled, err := w.warmup()
	if err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	o := &outcome{}
	total0, steal0 := cpuTicks()
	if !traced {
		p, err := w.measure(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		o.phase = p
	} else {
		half := cfg.seconds / 2
		bare, err := w.measure(half, nil)
		if err != nil {
			return nil, err
		}
		p, err := w.measure(half, tr)
		if err != nil {
			return nil, err
		}
		o.phase = p
		for _, d := range endToEnd {
			if _, ok := p.e2e[d.name]; !ok {
				continue
			}
			fmt.Fprintf(os.Stderr, "  %-22s untraced %14.4f  traced %14.4f\n", d.name, bare.e2e[d.name], p.e2e[d.name])
		}
		if p.e2e["traces_per_s"] > 0 {
			p.layer["bench.trace_overhead_pct"] = 100 * (bare.e2e["traces_per_s"]/p.e2e["traces_per_s"] - 1)
		}
	}
	if total1, steal1 := cpuTicks(); total1 > total0 {
		o.layer["host.steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	for k, v := range setup.e2e {
		o.e2e[k] = v
	}
	for k, v := range setup.layer {
		if _, ok := o.layer[k]; !ok {
			o.layer[k] = v
		}
	}
	w.verify(o, tr)
	calAfter, err := calibrate(calibWindow)
	if err != nil {
		return nil, err
	}
	o.layer["proc.warmup_s"] = warm.Seconds()
	o.layer["proc.warmup_settled"] = 0
	if settled {
		o.layer["proc.warmup_settled"] = 1
	}
	o.layer["proc.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	o.layer["host.nproc"] = float64(runtime.NumCPU())
	o.layer["proc.rss_mib"] = rssMiB()
	before, after := medianDur(calBefore), medianDur(calAfter)
	o.layer["host.calib_ns"] = float64(medianDur(append(calBefore, calAfter...)))
	o.layer["host.calib_drift_pct"] = 100 * (float64(after)/float64(before) - 1)
	fmt.Fprintf(os.Stderr, "perfbench: calibration kernel %.3f ms before, %.3f ms after; steal %.1f%% while measuring\n",
		float64(before)/1e6, float64(after)/1e6, o.layer["host.steal_pct"])
	if traced {
		spans := tr.spans()
		writeSelfTable(os.Stdout, name+", traced measured phase", under(spans, "bench.measure"))
		writeSelfTable(os.Stdout, name+", whole run", spans)
		path := filepath.Join(cfg.out, fmt.Sprintf("spans_%s_seed%d.csv", name, cfg.seed))
		if err := dumpSpans(path, spans); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	}
	return o, nil
}
