package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"pathtrace/internal/predictor"
	"pathtrace/internal/sim"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

const (
	offlineLimit = 1_000_000 // instructions captured per program, per iteration
	offlineBatch = 256       // traces per predictor call
	splitReps    = 5         // alternations of the capture split's three runs
)

// headline is the paper's headline predictor as `ntp -run headline`
// builds it, and ntpd's default: hybrid with the return history stack,
// depth 7, 2^16 entries.
var headline = predictor.Config{Depth: 7, IndexBits: 16, Hybrid: true, UseRHS: true}

// counts are one program's exact outputs at offlineLimit: what the
// correctness gate compares.
type counts struct {
	Instrs  uint64 `json:"instrs"`
	Traces  uint64 `json:"traces"`
	Correct uint64 `json:"correct"`
}

// golden is golden.json: the six canonical programs' counts.
type golden struct {
	Limit     uint64            `json:"limit"`
	Predictor string            `json:"predictor"`
	Programs  map[string]counts `json:"programs"`
}

// predictorTag names the predictor golden.json was recorded with, by
// the parameters that decide its predictions.
func predictorTag() string {
	return fmt.Sprintf("depth=%d indexbits=%d hybrid=%v rhs=%v", headline.Depth, headline.IndexBits, headline.Hybrid, headline.UseRHS)
}

// programs returns the six canonical programs and the zoo's wild
// generator seeded from the benchmark seed.
func programs(seed int64) []*workload.Workload {
	return append(canonical(), workload.NewWild("wild", workload.WildParams{Seed: seed}))
}

func canonical() []*workload.Workload {
	var out []*workload.Workload
	for _, n := range workload.Names() {
		w, _ := workload.ByName(n) // the six register at init
		out = append(out, w)
	}
	return out
}

type offline struct {
	progs  []*workload.Workload
	want   map[string]counts // golden for the six, first capture for wild
	images [][]byte          // each program's .ntps image
	warm   []*stream.Stream  // the streams decoded from images in set-up
	// The last iteration's streams and batch-replay stats, for the
	// batch == scalar check.
	last      []*stream.Stream
	lastStats []predictor.Stats

	captures, replays uint64
	problems          []string
}

func (o *offline) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *offline) setup(cfg runConfig, tr *tracer, p *phase) error {
	k := tr.track()
	root, t0 := k.begin()
	defer k.end("bench.setup", root, 0, t0)
	g, err := readGolden()
	if err != nil {
		return err
	}
	// The canonical programs are assembled once per process and cached
	// by their Workload; that one-shot build is part of set-up as it is.
	// The rest of set-up (wild's build, the warm start from .ntps
	// images, a collection) is repeated and its workQ time taken.
	var build time.Duration
	var reps []time.Duration
	var decode []time.Duration
	start := time.Now()
	for r := 0; r < setupReps || time.Since(start) < setupTime; r++ {
		o.progs = programs(cfg.seed)
		var rb time.Duration
		for _, w := range o.progs {
			d := k.timed("workload.ProgramErr", root, func(uint64) { _, err = w.ProgramErr() })
			if err != nil {
				return err
			}
			if w.Synthetic {
				rb += d
			} else if r == 0 {
				build += d
			}
		}
		if r == 0 {
			if err := o.makeImages(g, k, root); err != nil {
				return err
			}
		}
		o.warm = nil
		var dec time.Duration
		for i, img := range o.images {
			var st *stream.Stream
			dec += k.timed("stream.Decode", root, func(uint64) { st, err = stream.Decode(bytes.NewReader(img)) })
			if err != nil {
				return fmt.Errorf("%s: %w", o.progs[i].Name, err)
			}
			want := o.want[o.progs[i].Name]
			if uint64(st.Len()) != want.Traces || st.Instrs() != want.Instrs {
				o.fail("%s: decoded stream has %d traces/%d instrs, want %d/%d",
					o.progs[i].Name, st.Len(), st.Instrs(), want.Traces, want.Instrs)
			}
			o.warm = append(o.warm, st)
		}
		gc := k.timed("proc.GC", root, func(uint64) { runtime.GC() })
		reps = append(reps, rb+dec+gc)
		decode = append(decode, dec)
		if r == 0 {
			p.layer["workload.build_ms"] = ms(build + rb)
			p.layer["proc.setup_gc_ms"] = ms(gc)
		}
	}
	rep, at := workTime(reps)
	p.e2e["setup_s"] = (build + rep).Seconds()
	fmt.Fprintf(os.Stderr, "  offline-replay: %d set-ups, repeated part median %.1f ms, p90 %.1f ms\n", len(reps), ms(medianDur(reps)), ms(rep))
	p.e2e["live_heap_mib"] = liveHeapMiB()
	var traces, instrs, size uint64
	for i, st := range o.warm {
		traces += uint64(st.Len())
		instrs += st.Instrs()
		size += uint64(len(o.images[i]))
	}
	dec := decode[at]
	p.layer["stream.setup_ms"] = ms(dec)
	p.layer["stream.decode_ns_per_trace"] = float64(dec.Nanoseconds()) / float64(traces)
	p.layer["stream.bytes_per_trace"] = float64(size) / float64(traces)
	p.layer["trace.instrs_per_trace"] = float64(instrs) / float64(traces)
	if tr != nil {
		return captureSplit(p, k, root, o.progs)
	}
	return nil
}

// makeImages captures every program once, checks the counts against
// the golden file (the six) or records them (wild), and keeps each
// stream's .ntps image for the warm starts.
func (o *offline) makeImages(g *golden, k *track, parent uint64) error {
	o.want = map[string]counts{}
	for name, c := range g.Programs {
		o.want[name] = c
	}
	for _, w := range o.progs {
		var st *stream.Stream
		var err error
		k.timed("stream.Capture", parent, func(uint64) { st, err = stream.Capture(nil, w, offlineLimit, trace.DefaultConfig()) })
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		stats, err := replayScalar(st)
		if err != nil {
			return err
		}
		got := counts{Instrs: st.Instrs(), Traces: uint64(st.Len()), Correct: stats.Correct}
		if w.Synthetic {
			o.want[w.Name] = got
		} else if want, ok := o.want[w.Name]; !ok || got != want {
			o.fail("%s: captured %+v, golden.json has %+v", w.Name, got, want)
		}
		var buf bytes.Buffer
		if err := st.Encode(&buf); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		o.images = append(o.images, buf.Bytes())
	}
	return nil
}

// captureSplit times, for each program, the simulator alone (a
// visitor that only counts), the simulator feeding the trace selector,
// and a full stream.Capture, and reports the layers' shares from the
// differences: select = (sim+select) - sim, record = capture -
// (sim+select). The three runs alternate splitReps times and each
// takes its median, so a slow moment of the machine does not land on
// one side of a difference. It runs only in traced runs, outside every
// end-to-end time.
func captureSplit(p *phase, k *track, parent uint64, progs []*workload.Workload) error {
	var simT, selT, capT time.Duration
	var instrs, traces uint64
	for _, w := range progs {
		prog, err := w.ProgramErr()
		if err != nil {
			return err
		}
		var sims, sels, caps []time.Duration
		var n uint64
		var st *stream.Stream
		for r := 0; r < splitReps; r++ {
			n = 0
			cpu, err := sim.New(prog)
			if err != nil {
				return err
			}
			sims = append(sims, k.timed("sim.RunContext", parent, func(uint64) {
				err = cpu.RunContext(nil, offlineLimit, func(sim.Retired) { n++ })
			}))
			if err != nil {
				return err
			}
			if cpu, err = sim.New(prog); err != nil {
				return err
			}
			sel, err := trace.NewSelector(trace.DefaultConfig(), func(*trace.Trace) {})
			if err != nil {
				return err
			}
			sels = append(sels, k.timed("trace.Selector.Feed", parent, func(uint64) {
				err = cpu.RunContext(nil, offlineLimit, sel.Feed)
				sel.Flush()
			}))
			if err != nil {
				return err
			}
			caps = append(caps, k.timed("stream.Capture", parent, func(uint64) {
				st, err = stream.Capture(nil, w, offlineLimit, trace.DefaultConfig())
			}))
			if err != nil {
				return err
			}
		}
		simT += medianDur(sims)
		selT += medianDur(sels)
		capT += medianDur(caps)
		instrs += n
		traces += uint64(st.Len())
	}
	p.layer["sim.minstr_per_s"] = float64(instrs) / simT.Seconds() / 1e6
	p.layer["trace.ns_per_instr"] = float64((selT - simT).Nanoseconds()) / float64(instrs)
	p.layer["stream.record_ns_per_trace"] = float64((capT - selT).Nanoseconds()) / float64(traces)
	return nil
}

func (o *offline) warmup() (time.Duration, bool, error) {
	// One untimed iteration: fills the allocator's spans and the
	// simulators' decoded-text caches before anything is timed.
	t0 := time.Now()
	if _, err := o.measure(time.Nanosecond, nil); err != nil {
		return 0, false, err
	}
	runtime.GC()
	return time.Since(t0), true, nil
}

// measure runs whole iterations until d has passed: capture every
// program, then replay every stream through a fresh headline hybrid
// in 256-trace batches, as `ntp -run` does on a cold stream cache.
// Each program's captures and replays are fixed work, timed one by one;
// the timing metrics take each program's workQ time and sum over the
// programs.
func (o *offline) measure(d time.Duration, tr *tracer) (*phase, error) {
	k := tr.track()
	root, t0 := k.begin()
	defer k.end("bench.measure", root, 0, t0)
	n := len(o.progs)
	caps := make([][]time.Duration, n) // per program, per iteration
	reps := make([][]time.Duration, n)
	lats := make([][][]int64, n) // per program, per iteration: ns per full batch
	var iters int
	var instrsAll, tracesAll, batches uint64
	var cursorT, predictT time.Duration
	var agg predictor.Stats
	var allocBytes, newBytes, news uint64
	before := readProc()
	batch := make([]trace.Trace, offlineBatch)
	preds := make([]predictor.Prediction, offlineBatch)
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		iter, it0 := k.begin()
		var instrs, traces uint64
		streams := make([]*stream.Stream, n)
		for i, w := range o.progs {
			var err error
			c := k.timed("stream.Capture", iter, func(uint64) {
				streams[i], err = stream.Capture(nil, w, offlineLimit, trace.DefaultConfig())
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			caps[i] = append(caps[i], c)
			o.captures++
			instrs += streams[i].Instrs()
		}
		o.lastStats = o.lastStats[:0]
		for i, st := range streams {
			name := o.progs[i].Name
			want := o.want[name]
			if st.Instrs() != want.Instrs || uint64(st.Len()) != want.Traces {
				o.fail("%s: captured %d instrs/%d traces, want %d/%d", name, st.Instrs(), st.Len(), want.Instrs, want.Traces)
			}
			r0 := time.Now()
			var ma, mb runtime.MemStats
			if tr != nil {
				runtime.ReadMemStats(&ma)
			}
			var p predictor.NextTracePredictor
			var err error
			k.timed("predictor.New", iter, func(uint64) { p, err = predictor.New(headline) })
			if err != nil {
				return nil, err
			}
			if tr != nil {
				runtime.ReadMemStats(&mb)
				newBytes += mb.TotalAlloc - ma.TotalAlloc
				news++
			}
			lat := make([]int64, 0, st.Len()/offlineBatch)
			cur := st.Cursor()
			for {
				cid, c0 := k.begin()
				m := cur.NextBatch(batch)
				cursorT += k.end("stream.Cursor.NextBatch", cid, iter, c0)
				if m == 0 {
					break
				}
				pid, p0 := k.begin()
				predictor.PredictBatch(p, batch[:m], preds)
				pt := k.end("predictor.PredictBatch", pid, iter, p0)
				predictT += pt
				batches++
				if m == offlineBatch {
					lat = append(lat, int64(pt))
				}
			}
			if tr != nil {
				runtime.ReadMemStats(&ma)
				allocBytes += ma.TotalAlloc - mb.TotalAlloc
			}
			r := time.Since(r0)
			reps[i] = append(reps[i], r)
			lats[i] = append(lats[i], lat)
			o.replays++
			s := p.Stats()
			if s.Correct != want.Correct || s.Predictions != want.Traces {
				o.fail("%s: hybrid %d correct of %d, want %d of %d", name, s.Correct, s.Predictions, want.Correct, want.Traces)
			}
			o.lastStats = append(o.lastStats, s)
			agg = agg.Add(s)
			traces += uint64(st.Len())
		}
		o.last = streams
		k.end("bench.iteration", iter, root, it0)
		iters++
		instrsAll += instrs
		tracesAll += traces
	}
	pd := before.to(readProc())
	// Per program: the workQ capture and replay time, and the workQ,
	// over its replays, of each replay's exact batch-time quantiles.
	// The programs' batch quantiles are averaged, weighted by their
	// batch counts.
	var capT, repT time.Duration
	var instrsOne, tracesOne uint64
	var p50, p90, nb float64
	for i, w := range o.progs {
		c, _ := workTime(caps[i])
		r, _ := workTime(reps[i])
		capT += c
		repT += r
		var q50, q90 []time.Duration
		for _, l := range lats[i] {
			sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
			q50 = append(q50, time.Duration(quantile(l, 0.50)))
			q90 = append(q90, time.Duration(quantile(l, 0.90)))
		}
		a, _ := workTime(q50)
		b, _ := workTime(q90)
		n := float64(len(lats[i][0]))
		p50 += n * float64(a)
		p90 += n * float64(b)
		nb += n
		want := o.want[w.Name]
		instrsOne += want.Instrs
		tracesOne += want.Traces
	}
	p := newPhase()
	p.e2e["capture_minstr_per_s"] = float64(instrsOne) / capT.Seconds() / 1e6
	p.e2e["replay_mtraces_per_s"] = float64(tracesOne) / repT.Seconds() / 1e6
	p.e2e["traces_per_s"] = float64(tracesOne) / (capT + repT).Seconds()
	p.e2e["rtt_p50_us"] = p50 / nb / 1e3
	p.e2e["rtt_p90_us"] = p90 / nb / 1e3
	fmt.Fprintf(os.Stderr, "  offline-replay: %d iterations, %d instrs, %d traces; p90 time: capture %.2f Minstr/s, replay %.2f Mtraces/s, batch p50 %.2f us p90 %.2f us (%d full batches an iteration)\n",
		iters, instrsAll, tracesAll, p.e2e["capture_minstr_per_s"], p.e2e["replay_mtraces_per_s"],
		p.e2e["rtt_p50_us"], p.e2e["rtt_p90_us"], int(nb))
	if tr == nil {
		return p, nil
	}
	t := float64(tracesAll)
	p.layer["stream.cursor_ns_per_trace"] = float64(cursorT.Nanoseconds()) / t
	p.layer["predictor.ns_per_round"] = float64(predictT.Nanoseconds()) / t
	p.layer["predictor.alloc_bytes_per_round"] = float64(allocBytes) / t
	p.layer["predictor.miss_pct"] = agg.MissRate()
	p.layer["predictor.bytes_per_session"] = float64(newBytes) / float64(news)
	p.layer["proc.cpu_ns_per_trace"] = float64(pd.cpu.Nanoseconds()) / t
	p.layer["proc.cpu_util"] = pd.cpu.Seconds() / pd.wall.Seconds()
	p.layer["proc.alloc_bytes_per_trace"] = float64(pd.allocBytes) / t
	p.layer["proc.gc_cycles"] = float64(pd.gcCycles)
	p.layer["proc.gc_pause_ms"] = ms(pd.gcPause)
	p.layer["proc.minflt_per_req"] = float64(pd.minflt) / float64(batches)
	p.layer["proc.sched_lat_p99_us"] = float64(pd.schedP99.Nanoseconds()) / 1e3
	return p, nil
}

// verify replays the last iteration's streams through the scalar
// Predict/Update loop and requires the same stats as the batch replay.
func (o *offline) verify(out *outcome, tr *tracer) {
	k := tr.track()
	root, t0 := k.begin()
	defer k.end("bench.verify", root, 0, t0)
	out.problems = append(out.problems, o.problems...)
	for i, st := range o.last {
		var s predictor.Stats
		var err error
		k.timed("predictor.ScalarReplay", root, func(uint64) { s, err = replayScalar(st) })
		if err != nil {
			out.failed++
			out.check(false, "%s: scalar replay: %v", o.progs[i].Name, err)
			continue
		}
		out.check(s.Equal(o.lastStats[i]), "%s: scalar replay %+v, batch replay %+v", o.progs[i].Name, s, o.lastStats[i])
	}
	out.attempted = o.captures + o.replays + uint64(len(o.last))
	out.check(o.replays > 0, "no replay completed")
}

func (o *offline) close() {}

// replayScalar runs the stream through a fresh headline hybrid one
// Predict/Update round at a time.
func replayScalar(st *stream.Stream) (predictor.Stats, error) {
	p, err := predictor.New(headline)
	if err != nil {
		return predictor.Stats{}, err
	}
	if _, _, err := st.Replay(nil, func(tr *trace.Trace) {
		p.Predict()
		p.Update(tr)
	}); err != nil {
		return predictor.Stats{}, err
	}
	return p.Stats(), nil
}

// goldenJSON holds the six canonical programs' counts, recorded by
// -write-golden perfbench/golden.json.
//
//go:embed golden.json
var goldenJSON []byte

func readGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Limit != offlineLimit || g.Predictor != predictorTag() || len(g.Programs) != 6 {
		return nil, fmt.Errorf("golden.json was recorded for limit %d, predictor %s, %d programs; record it again with -write-golden",
			g.Limit, g.Predictor, len(g.Programs))
	}
	return &g, nil
}

// writeGolden records the six canonical programs' counts.
func writeGolden(path string) error {
	g := golden{Limit: offlineLimit, Predictor: predictorTag(), Programs: map[string]counts{}}
	for _, w := range canonical() {
		st, err := stream.Capture(nil, w, offlineLimit, trace.DefaultConfig())
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		s, err := replayScalar(st)
		if err != nil {
			return err
		}
		g.Programs[w.Name] = counts{Instrs: st.Instrs(), Traces: uint64(st.Len()), Correct: s.Correct}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
