package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
	"pathtrace/internal/serve"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// serveSpec is one closed-loop traffic mix against an in-process ntpd.
type serveSpec struct {
	name      string
	sessions  int  // sessions opened
	active    int  // sessions that receive traffic
	batch     int  // traces per request
	predict   bool // PredictBatch (predictions returned) instead of UpdateBatch
	snapEvery int  // each session is snapshotted after every snapEvery-th batch it is sent; 0 = never
}

var (
	// bulkSpec: per-trace work dominates; per-frame cost is spread
	// over 256 traces and the four sessions' tables stay cache-warm.
	bulkSpec = serveSpec{name: "serve-bulk", sessions: 4, active: 4, batch: 256}
	// fleetSpec: per-frame and per-session costs dominate: short
	// batches, many resident sessions, cold tables, snapshots. The
	// snapshot cadence is RetryClient's SnapshotEvery per session, with
	// 256 where ntpd -loadgen -failover uses 1: at 1 every batch-16
	// request would carry a 600 KiB snapshot and encode would swamp the
	// per-frame costs this workload is about (see README.md).
	fleetSpec = serveSpec{name: "serve-fleet", sessions: 500, active: 64, batch: 16, predict: true, snapEvery: 256}
)

const (
	serveConns = 2         // load connections, one goroutine each
	gccLimit   = 1_000_000 // instructions of gcc captured for the sessions to replay
	slotLen    = 250 * time.Millisecond
	refBatch   = 256 // traces per predictor call in reference replays

	maxSessions = 1 << 16 // sessions opened at most while filling every shard's share

	// An untraced measured phase drives the server for probeEvery, then
	// times gcc captures back to back for probeBurst and whole-stream
	// replays for as long, and repeats: the probes sample the machine
	// all through the run, as offline-replay's captures and replays do.
	probeEvery = time.Second
	probeBurst = 200 * time.Millisecond
)

type session struct {
	id     uint64
	conn   int
	offset int // first stream trace this session replays; it wraps at the end
	cur    *stream.Cursor
	// Touched only by the session's connection goroutine.
	sent    uint64 // traces the server applied
	batches uint64 // batches sent, offset so the sessions' snapshots are spread out
}

type serveLoad struct {
	spec     serveSpec
	probe    bool // interleave probe bursts with the measured drive (untraced runs)
	st       *stream.Stream
	srv      *serve.Server
	clients  []*serve.Client
	sessions []*session   // every opened session; id = index + 1
	order    [][]*session // per connection, its active sessions in visiting order

	stBytes int // the stream's .ntps size

	// Counts over the whole run, for the correctness gate.
	requests, snapshots, probeOps uint64
	problems                      []string
}

func newServeLoad(spec serveSpec) *serveLoad { return &serveLoad{spec: spec} }

// setupParts is one set-up's time, split by layer.
type setupParts struct {
	build, capture, encode, decode, server, open, gc time.Duration
	allocPerSession                                  float64
}

// repeated is the part of a set-up that each repetition pays again:
// all of it but the program build, which the Workload caches.
func (p setupParts) repeated() time.Duration {
	return p.capture + p.encode + p.decode + p.server + p.open + p.gc
}

func (s *serveLoad) setup(cfg runConfig, tr *tracer, p *phase) error {
	s.probe = !cfg.traced
	k := tr.track()
	root, t0 := k.begin()
	defer k.end("bench.setup", root, 0, t0)
	var reps []setupParts
	start := time.Now()
	for r := 0; r < setupReps || time.Since(start) < setupTime; r++ {
		if r > 0 {
			s.teardown()
		}
		parts, err := s.setupOnce(cfg.seed, k, root)
		if err != nil {
			return err
		}
		reps = append(reps, parts)
	}
	build := reps[0].build
	times := make([]time.Duration, len(reps))
	for i, r := range reps {
		times[i] = r.repeated()
	}
	_, at := workTime(times)
	m := reps[at]
	p.e2e["setup_s"] = (build + m.repeated()).Seconds()
	fmt.Fprintf(os.Stderr, "  %s: %d set-ups, repeated part median %.1f ms, p90 %.1f ms\n", s.spec.name, len(reps), ms(medianDur(times)), ms(m.repeated()))
	p.e2e["live_heap_mib"] = liveHeapMiB()
	p.layer["workload.build_ms"] = ms(build)
	p.layer["stream.setup_ms"] = ms(m.capture + m.encode + m.decode)
	p.layer["stream.decode_ns_per_trace"] = float64(m.decode.Nanoseconds()) / float64(s.st.Len())
	p.layer["serve.setup_ms"] = ms(m.server + m.open)
	p.layer["serve.open_us"] = float64(m.open.Microseconds()) / float64(len(s.sessions))
	p.layer["proc.setup_gc_ms"] = ms(m.gc)
	p.layer["predictor.bytes_per_session"] = m.allocPerSession
	p.layer["stream.bytes_per_trace"] = float64(s.stBytes) / float64(s.st.Len())
	p.layer["trace.instrs_per_trace"] = float64(s.st.Instrs()) / float64(s.st.Len())
	if tr != nil {
		if err := captureSplit(p, k, root, []*workload.Workload{gcc()}); err != nil {
			return err
		}
	}
	return nil
}

func gcc() *workload.Workload {
	w, _ := workload.ByName("gcc") // registered at init
	return w
}

// setupOnce builds everything the measured phase needs: the gcc
// program, its captured stream (round-tripped through the .ntps codec
// as a loadgen -stream warm start does), the server, the connections
// and every session.
func (s *serveLoad) setupOnce(seed int64, k *track, parent uint64) (setupParts, error) {
	var parts setupParts
	var err error
	w := gcc()
	parts.build = k.timed("workload.ProgramErr", parent, func(uint64) { _, err = w.ProgramErr() })
	if err != nil {
		return parts, err
	}
	var captured *stream.Stream
	parts.capture = k.timed("stream.Capture", parent, func(uint64) {
		captured, err = stream.Capture(nil, w, gccLimit, trace.DefaultConfig())
	})
	if err != nil {
		return parts, err
	}
	var buf bytes.Buffer
	parts.encode = k.timed("stream.Encode", parent, func(uint64) { err = captured.Encode(&buf) })
	if err != nil {
		return parts, err
	}
	s.stBytes = buf.Len()
	parts.decode = k.timed("stream.Decode", parent, func(uint64) { s.st, err = stream.Decode(&buf) })
	if err != nil {
		return parts, err
	}
	if s.st.Len() != captured.Len() || s.st.Instrs() != captured.Instrs() {
		return parts, fmt.Errorf("decoded gcc stream has %d traces/%d instrs, captured %d/%d",
			s.st.Len(), s.st.Instrs(), captured.Len(), captured.Instrs())
	}

	// ntpd runs GOMAXPROCS shards; the count is passed explicitly
	// because the active set below is drawn per shard.
	shards := runtime.GOMAXPROCS(0)
	parts.server = k.timed("serve.Start", parent, func(id uint64) {
		k.timed("serve.NewServer", id, func(uint64) {
			s.srv, err = serve.NewServer(serve.Config{Addr: "127.0.0.1:0", Predictor: headline, Shards: shards})
		})
		for i := 0; i < serveConns && err == nil; i++ {
			var c *serve.Client
			k.timed("serve.Dial", id, func(uint64) { c, err = serve.Dial(s.srv.Addr().String()) })
			if err == nil {
				s.clients = append(s.clients, c)
			}
		}
	})
	if err != nil {
		return parts, err
	}

	// Sessions, each with a seed-chosen stream offset, opened until
	// there are spec.sessions and every shard holds its share of the
	// active set. Session ids hash to shards, so the active set is drawn
	// per shard: the same number from each, whatever the seed or the
	// shard count.
	rng := rand.New(rand.NewSource(seed))
	quota := func(sh int) int {
		if sh < s.spec.active%shards {
			return s.spec.active/shards + 1
		}
		return s.spec.active / shards
	}
	byShard := make([][]*session, shards)
	short := func() bool {
		for sh, list := range byShard {
			if len(list) < quota(sh) {
				return true
			}
		}
		return false
	}
	s.sessions = nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parts.open = k.timed("serve.OpenAll", parent, func(id uint64) {
		for i := 0; i < s.spec.sessions || short(); i++ {
			if i == maxSessions {
				err = fmt.Errorf("%d sessions opened and a shard still holds too few", i)
				return
			}
			ss := &session{id: uint64(i + 1), conn: i % serveConns, offset: rng.Intn(s.st.Len())}
			var shard uint32
			k.timed("serve.Client.Open", id, func(uint64) { shard, _, err = s.clients[ss.conn].Open(ss.id) })
			if err == nil && int(shard) >= shards {
				err = fmt.Errorf("server put it on shard %d of %d", shard, shards)
			}
			if err != nil {
				err = fmt.Errorf("open session %d: %w", ss.id, err)
				return
			}
			s.sessions = append(s.sessions, ss)
			byShard[shard] = append(byShard[shard], ss)
		}
	})
	if err != nil {
		return parts, err
	}
	runtime.ReadMemStats(&after)
	parts.allocPerSession = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(s.sessions))

	// The picked sessions are dealt to the connections in turn, one
	// shard after another, so that each connection serves whole shards
	// when the shard count is a multiple of serveConns: the two
	// connections' requests then never queue behind each other in one
	// shard. When they do, a round trip takes one or two service times
	// at about even odds, and its median sits on the step between the
	// two. Each connection visits its sessions in a seed-shuffled order.
	// A session served on another connection than the one that opened
	// it is re-attached there, so that connection tracks its sequence
	// numbers.
	picked := pickActive(byShard, quota, rng)
	s.order = make([][]*session, serveConns)
	for j, ss := range picked {
		if c := j % serveConns; c != ss.conn {
			ss.conn = c
			if _, _, err := s.clients[c].Open(ss.id); err != nil {
				return parts, fmt.Errorf("re-attach session %d: %w", ss.id, err)
			}
		}
		ss.cur = s.st.Cursor()
		skip(ss.cur, ss.offset)
		s.order[ss.conn] = append(s.order[ss.conn], ss)
	}
	for _, o := range s.order {
		rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		// A connection's sessions reach their snapEvery-th batch one
		// after another, not all in the same round.
		for j, ss := range o {
			ss.batches = uint64(j * s.spec.snapEvery / len(o))
		}
	}
	parts.gc = k.timed("proc.GC", parent, func(uint64) { runtime.GC() })
	return parts, nil
}

// pickActive draws quota(sh) of each shard's sessions and returns them
// interleaved by shard: one from each shard in turn. Shard 0 has the
// largest quota.
func pickActive(byShard [][]*session, quota func(int) int, rng *rand.Rand) []*session {
	drawn := make([][]*session, len(byShard))
	for sh, list := range byShard {
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		drawn[sh] = list[:quota(sh)]
	}
	var picked []*session
	for k := range drawn[0] {
		for _, d := range drawn {
			if k < len(d) {
				picked = append(picked, d[k])
			}
		}
	}
	return picked
}

// teardown drops a set-up. Its memory stays with the process, so every
// set-up after the first reuses the same pages.
func (s *serveLoad) teardown() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.clients, s.srv, s.sessions, s.order, s.st = nil, nil, nil, nil, nil
	runtime.GC()
}

func (s *serveLoad) close() { s.teardown() }

// skip advances a cursor by n traces.
func skip(c *stream.Cursor, n int) {
	var buf [refBatch]trace.Trace
	for n > 0 {
		m := n
		if m > len(buf) {
			m = len(buf)
		}
		n -= c.NextBatch(buf[:m])
	}
}

// fill fills batch from the cursor, wrapping to the stream's start.
func fill(c *stream.Cursor, batch []trace.Trace) {
	n := c.NextBatch(batch)
	for n < len(batch) {
		c.Reset()
		n += c.NextBatch(batch[n:])
	}
}

// connRun is one connection goroutine's record of a drive.
type connRun struct {
	rtts      []int64  // ns per batch request
	slots     []uint64 // traces completed per slotLen since the drive began
	traces    uint64
	requests  uint64
	overloads uint64
	throttled uint64
	cursor    time.Duration
	snapRTT   []int64
	snapDec   []int64
	snapBytes uint64
	err       error
}

// drive runs the closed loop on every connection for d: each
// connection sends its next request only when the previous answer is
// in, visiting its active sessions in order.
func (s *serveLoad) drive(d time.Duration, tr *tracer, parent uint64) []*connRun {
	runs := make([]*connRun, serveConns)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range runs {
		runs[ci] = &connRun{rtts: make([]int64, 0, 1<<16)}
		wg.Add(1)
		go func(ci int, k *track) {
			defer wg.Done()
			s.driveConn(ci, start, start.Add(d), k, parent, runs[ci])
		}(ci, tr.track())
	}
	wg.Wait()
	return runs
}

func (s *serveLoad) driveConn(ci int, start, deadline time.Time, k *track, parent uint64, cr *connRun) {
	cl := s.clients[ci]
	order := s.order[ci]
	batch := make([]trace.Trace, s.spec.batch)
	var preds []predictor.Prediction
	opName := "serve.Client.UpdateBatch"
	if s.spec.predict {
		preds = make([]predictor.Prediction, s.spec.batch)
		opName = "serve.Client.PredictBatch"
	}
	send := func(id uint64) (skipped, applied uint32, err error) {
		if s.spec.predict {
			skipped, applied, _, err = cl.PredictBatch(id, batch, preds)
		} else {
			skipped, applied, _, err = cl.UpdateBatch(id, batch)
		}
		return skipped, applied, err
	}
	for i := 0; ; i++ {
		ss := order[i%len(order)]
		cid, c0 := k.begin()
		fill(ss.cur, batch)
		cr.cursor += k.end("stream.Cursor.NextBatch", cid, parent, c0)

		rid, r0 := k.begin()
		skipped, applied, err := send(ss.id)
		for errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrThrottled) {
			// Both are refused before the predictor is touched, so the
			// same batch is resent unchanged.
			if errors.Is(err, serve.ErrThrottled) {
				cr.throttled++
				time.Sleep(time.Millisecond)
			} else {
				cr.overloads++
				time.Sleep(200 * time.Microsecond)
			}
			skipped, applied, err = send(ss.id)
		}
		rtt := k.end(opName, rid, parent, r0)
		if err != nil {
			cr.err = fmt.Errorf("session %d: %w", ss.id, err)
			return
		}
		if skipped != 0 || int(applied) != len(batch) {
			cr.err = fmt.Errorf("session %d: %d skipped, %d of %d applied", ss.id, skipped, applied, len(batch))
			return
		}
		ss.sent += uint64(applied)
		ss.batches++
		now := r0.Add(rtt)
		slot := int(now.Sub(start) / slotLen)
		for len(cr.slots) <= slot {
			cr.slots = append(cr.slots, 0)
		}
		cr.slots[slot] += uint64(applied)
		cr.rtts = append(cr.rtts, int64(rtt))
		cr.requests++
		cr.traces += uint64(applied)

		if s.spec.snapEvery > 0 && ss.batches%uint64(s.spec.snapEvery) == 0 {
			if err := snapshotOf(cl, ss, k, parent, cr); err != nil {
				cr.err = err
				return
			}
		}
		if !now.Before(deadline) {
			return
		}
	}
}

// snapshot fetches the session's snapshot frame, as a checkpointing
// client would, and checks that it decodes to the right session with
// its sequence cursor at the last trace sent (every session starts at
// sequence 0 and numbers each trace).
func snapshotOf(cl *serve.Client, ss *session, k *track, parent uint64, cr *connRun) error {
	var frame []byte
	var err error
	rtt := k.timed("serve.Client.Snapshot", parent, func(uint64) { frame, err = cl.Snapshot(ss.id) })
	if err != nil {
		return fmt.Errorf("snapshot of session %d: %w", ss.id, err)
	}
	var sess *snapshot.Session
	dec := k.timed("snapshot.Decode", parent, func(uint64) { sess, err = snapshot.Decode(frame) })
	if err != nil {
		return fmt.Errorf("snapshot of session %d: %w", ss.id, err)
	}
	if sess.ID != ss.id || sess.LastSeq != ss.sent {
		return fmt.Errorf("snapshot of session %d decodes as session %d at sequence %d, want sequence %d",
			ss.id, sess.ID, sess.LastSeq, ss.sent)
	}
	cr.snapRTT = append(cr.snapRTT, int64(rtt))
	cr.snapDec = append(cr.snapDec, int64(dec))
	cr.snapBytes += uint64(len(frame))
	return nil
}

// total folds one drive's connection records into run-wide counts.
func (s *serveLoad) total(runs []*connRun) (all connRun, err error) {
	for _, r := range runs {
		if r.err != nil && err == nil {
			err = r.err
		}
		all.add(r)
		for i, v := range r.slots {
			for len(all.slots) <= i {
				all.slots = append(all.slots, 0)
			}
			all.slots[i] += v
		}
	}
	s.requests += all.requests
	s.snapshots += uint64(len(all.snapRTT))
	return all, err
}

// add folds r's samples and counts into a; the slots are left to the
// caller.
func (a *connRun) add(r *connRun) {
	a.rtts = append(a.rtts, r.rtts...)
	a.traces += r.traces
	a.requests += r.requests
	a.overloads += r.overloads
	a.throttled += r.throttled
	a.cursor += r.cursor
	a.snapRTT = append(a.snapRTT, r.snapRTT...)
	a.snapDec = append(a.snapDec, r.snapDec...)
	a.snapBytes += r.snapBytes
}

// warmup drives the loop in short chunks until the minor-fault rate
// per request and the heap stop moving, then collects garbage. The
// heap has settled once a collection has run under load: until then
// every allocation lands on pages the process has never touched. The
// fault rate has settled once two chunks in a row read within 20% (or
// 0.05 faults per request) of each other. A warm-up that reaches the
// chunk cap unsettled is reported, not hidden.
func (s *serveLoad) warmup() (time.Duration, bool, error) {
	t0 := time.Now()
	const chunk = 250 * time.Millisecond
	const maxChunks = 48
	start := readProc()
	prevFlt := -1.0
	settled := false
	for i := 0; i < maxChunks && !settled; i++ {
		a := readProc()
		all, err := s.total(s.drive(chunk, nil, 0))
		if err != nil {
			return 0, false, err
		}
		b := readProc()
		flt := float64(a.to(b).minflt) / float64(all.requests)
		settled = i >= 3 && b.numGC > start.numGC && prevFlt >= 0 && math.Abs(flt-prevFlt) <= 0.2*prevFlt+0.05
		prevFlt = flt
	}
	if !settled {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s warm-up did not settle in %d chunks (last %.2f minor faults per request)\n",
			s.spec.name, maxChunks, prevFlt)
	}
	runtime.GC()
	return time.Since(t0), settled, nil
}

// probes holds the capture and replay times of the probe bursts. Each
// capture is of the gcc program, as a loadgen -workload run captures
// before it sends; each replay is of the whole gcc stream through a
// fresh headline hybrid in refBatch-trace PredictBatch calls, as
// offline-replay replays a stream. Both are fixed work, whatever the
// drive sent.
type probes struct {
	caps, reps []time.Duration
	want       predictor.Stats // the first replay's
}

// burst times captures for probeBurst, then replays for as long, at
// least one of each. Every capture must equal the set-up's stream in
// instructions and traces, and every replay must give the first
// replay's Stats.
func (s *serveLoad) burst(pr *probes) error {
	st := s.st
	for start, first := time.Now(), true; first || time.Since(start) < probeBurst; first = false {
		t0 := time.Now()
		c, err := stream.Capture(nil, gcc(), gccLimit, trace.DefaultConfig())
		if err != nil {
			return err
		}
		pr.caps = append(pr.caps, time.Since(t0))
		s.probeOps++
		if c.Instrs() != st.Instrs() || c.Len() != st.Len() {
			s.problems = append(s.problems, fmt.Sprintf("probe capture of gcc: %d instrs/%d traces, set-up captured %d/%d",
				c.Instrs(), c.Len(), st.Instrs(), st.Len()))
		}
	}
	batch := make([]trace.Trace, refBatch)
	preds := make([]predictor.Prediction, refBatch)
	for start, first := time.Now(), true; first || time.Since(start) < probeBurst; first = false {
		t0 := time.Now()
		p, err := predictor.New(headline)
		if err != nil {
			return err
		}
		cur := st.Cursor()
		for n := cur.NextBatch(batch); n > 0; n = cur.NextBatch(batch) {
			predictor.PredictBatch(p, batch[:n], preds)
		}
		pr.reps = append(pr.reps, time.Since(t0))
		s.probeOps++
		if len(pr.reps) == 1 {
			pr.want = p.Stats()
		} else if got := p.Stats(); !got.Equal(pr.want) {
			s.problems = append(s.problems, fmt.Sprintf("probe replay of gcc: stats %+v, first replay %+v", got, pr.want))
		}
	}
	return nil
}

// opSeconds reads the server's own service-time histogram for op,
// summed over shards: (seconds, count).
func (s *serveLoad) opSeconds(op string) (float64, float64, error) {
	var buf bytes.Buffer
	if err := s.srv.Metrics().Render(&buf); err != nil {
		return 0, 0, err
	}
	snap, err := metrics.ParseText(&buf)
	if err != nil {
		return 0, 0, err
	}
	l := metrics.Labels{"op": op}
	return snap.Sum("ntpd_shard_op_seconds_sum", l), snap.Sum("ntpd_shard_op_seconds_count", l), nil
}

// sampleQueues polls the shards' queue-depth gauge until stop closes
// and returns the largest depth seen.
func (s *serveLoad) sampleQueues(stop <-chan struct{}) float64 {
	var max float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return max
		case <-tick.C:
		}
		var buf bytes.Buffer
		if s.srv.Metrics().Render(&buf) != nil {
			continue
		}
		snap, err := metrics.ParseText(&buf)
		if err != nil {
			continue
		}
		snap.Each("ntpd_shard_queue_depth", nil, func(_ metrics.Labels, v float64) {
			if v > max {
				max = v
			}
		})
	}
}

func (s *serveLoad) measure(d time.Duration, tr *tracer) (*phase, error) {
	k := tr.track()
	root, t0 := k.begin()
	defer k.end("bench.measure", root, 0, t0)
	op := "update_batch"
	if s.spec.predict {
		op = "predict_batch"
	}
	svc0, n0, err := s.opSeconds(op)
	if err != nil {
		return nil, err
	}
	var qmax float64
	var qwg sync.WaitGroup
	stop := make(chan struct{})
	if tr != nil {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			qmax = s.sampleQueues(stop)
		}()
	}
	before := readProc()
	var all connRun
	var slots []uint64 // whole slots; each drive's last one is cut short by its deadline
	var pr probes
	for left := d; left > 0 && err == nil; {
		part := left
		if s.probe && part > probeEvery {
			part = probeEvery
		}
		left -= part
		var run connRun
		if run, err = s.total(s.drive(part, tr, root)); err == nil {
			all.add(&run)
			slots = append(slots, run.slots[:len(run.slots)-1]...)
			if s.probe {
				err = s.burst(&pr)
			}
		}
	}
	after := readProc()
	close(stop)
	qwg.Wait()
	if err != nil {
		return nil, err
	}
	svc1, n1, err := s.opSeconds(op)
	if err != nil {
		return nil, err
	}

	p := newPhase()
	sort.Slice(all.rtts, func(i, j int) bool { return all.rtts[i] < all.rtts[j] })
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	p.e2e["traces_per_s"] = slotRate(slots)
	p.e2e["rtt_p50_us"] = us(quantile(all.rtts, 0.50))
	p.e2e["rtt_p90_us"] = us(quantile(all.rtts, 0.90))
	if s.probe {
		c, _ := workTime(pr.caps)
		r, _ := workTime(pr.reps)
		p.e2e["capture_minstr_per_s"] = float64(s.st.Instrs()) / c.Seconds() / 1e6
		p.e2e["replay_mtraces_per_s"] = float64(s.st.Len()) / r.Seconds() / 1e6
		fmt.Fprintf(os.Stderr, "  %s: probes: %d captures, p90 time %.2f ms, %.2f Minstr/s; %d replays, p90 time %.2f ms, %.2f Mtraces/s\n",
			s.spec.name, len(pr.caps), ms(c), p.e2e["capture_minstr_per_s"], len(pr.reps), ms(r), p.e2e["replay_mtraces_per_s"])
	}
	fmt.Fprintf(os.Stderr, "  %s: %d requests, %d traces, %.0f traces/s; rtt us p10 %.1f p30 %.1f p50 %.1f p70 %.1f p90 %.1f p99 %.1f (n=%d)\n",
		s.spec.name, all.requests, all.traces, p.e2e["traces_per_s"], us(quantile(all.rtts, 0.1)), us(quantile(all.rtts, 0.3)),
		p.e2e["rtt_p50_us"], us(quantile(all.rtts, 0.7)), p.e2e["rtt_p90_us"], us(quantile(all.rtts, 0.99)), len(all.rtts))
	if tr == nil {
		return p, nil
	}

	var rttSum int64
	for _, v := range all.rtts {
		rttSum += v
	}
	rttMean := float64(rttSum) / float64(len(all.rtts)) / 1e3
	svcMean := 0.0
	if n1 > n0 {
		svcMean = (svc1 - svc0) / (n1 - n0) * 1e6
	}
	pd := before.to(after)
	traces := float64(all.traces)
	p.layer["serve.service_us_mean"] = svcMean
	p.layer["serve.outside_us_mean"] = rttMean - svcMean
	p.layer["serve.rtt_p99_us"] = us(quantile(all.rtts, 0.99))
	p.layer["serve.rtt_p999_us"] = us(quantile(all.rtts, 0.999))
	p.layer["serve.rtt_max_us"] = us(all.rtts[len(all.rtts)-1])
	p.layer["serve.rtt_samples"] = float64(len(all.rtts))
	p.layer["serve.requests"] = float64(all.requests)
	p.layer["serve.overload_retries"] = float64(all.overloads)
	p.layer["serve.throttled"] = float64(all.throttled)
	p.layer["serve.queue_depth_max"] = qmax
	p.layer["stream.cursor_ns_per_trace"] = float64(all.cursor.Nanoseconds()) / traces
	snapshotMetrics(p.layer, &all)
	p.layer["proc.cpu_ns_per_trace"] = float64(pd.cpu.Nanoseconds()) / traces
	p.layer["proc.cpu_util"] = pd.cpu.Seconds() / pd.wall.Seconds()
	p.layer["proc.alloc_bytes_per_trace"] = float64(pd.allocBytes) / traces
	p.layer["proc.gc_cycles"] = float64(pd.gcCycles)
	p.layer["proc.gc_pause_ms"] = ms(pd.gcPause)
	p.layer["proc.minflt_per_req"] = float64(pd.minflt) / float64(all.requests)
	p.layer["proc.sched_lat_p99_us"] = float64(pd.schedP99.Nanoseconds()) / 1e3
	return p, nil
}

// snapshotMetrics reports the snapshots a connRun took, if any.
func snapshotMetrics(layer map[string]float64, cr *connRun) {
	n := len(cr.snapRTT)
	if n == 0 {
		return
	}
	sort.Slice(cr.snapRTT, func(i, j int) bool { return cr.snapRTT[i] < cr.snapRTT[j] })
	sort.Slice(cr.snapDec, func(i, j int) bool { return cr.snapDec[i] < cr.snapDec[j] })
	layer["snapshot.rtt_ms"] = float64(quantile(cr.snapRTT, 0.5)) / 1e6
	layer["snapshot.decode_ms"] = float64(quantile(cr.snapDec, 0.5)) / 1e6
	layer["snapshot.frame_kib"] = float64(cr.snapBytes) / float64(n) / 1024
	layer["snapshot.samples"] = float64(n)
}

// slotRate is the median, over whole slots, of traces completed per
// second.
func slotRate(slots []uint64) float64 {
	rates := make([]float64, len(slots))
	for i, v := range slots {
		rates[i] = float64(v) / slotLen.Seconds()
	}
	return median(rates)
}

// verify requires every session's server-side Stats to equal an
// in-process replay of exactly the traces that session was sent, from
// a fresh predictor of the same configuration (the loadgen -verify
// anchor); idle sessions must be untouched.
func (s *serveLoad) verify(o *outcome, tr *tracer) {
	k := tr.track()
	root, t0 := k.begin()
	defer k.end("bench.verify", root, 0, t0)
	o.attempted = s.requests + s.snapshots + s.probeOps
	o.problems = append(o.problems, s.problems...)
	var active []*session
	for _, ss := range s.sessions {
		if ss.cur != nil {
			active = append(active, ss)
		}
	}
	// One session at a time, on this goroutine, from a fresh predictor
	// whose construction is left out of the timing.
	refOf := map[uint64]predictor.Stats{}
	var rounds, allocBytes uint64
	var busy time.Duration
	var agg predictor.Stats
	for _, ss := range active {
		p, err := predictor.New(headline)
		if err != nil {
			o.check(false, "reference predictor: %v", err)
			return
		}
		before := readProc()
		busy += k.timed("predictor.ReferenceReplay", root, func(uint64) { s.replay(ss, p) })
		allocBytes += before.to(readProc()).allocBytes
		rounds += ss.sent
		refOf[ss.id] = p.Stats()
		agg = agg.Add(p.Stats())
	}
	o.layer["predictor.ns_per_round"] = float64(busy.Nanoseconds()) / float64(rounds)
	o.layer["predictor.alloc_bytes_per_round"] = float64(allocBytes) / float64(rounds)
	o.layer["predictor.miss_pct"] = agg.MissRate()

	for _, ss := range s.sessions {
		got, err := s.clients[ss.conn].Stats(ss.id)
		if err != nil {
			o.failed++
			o.check(false, "stats of session %d: %v", ss.id, err)
			continue
		}
		want := refOf[ss.id] // zero for an idle session
		o.check(got.Session.Equal(want), "session %d: server stats %+v, in-process replay of the %d traces sent %+v",
			ss.id, got.Session, ss.sent, want)
	}
	o.attempted += uint64(len(s.sessions))

	// One last snapshot of every active session, checked like the ones
	// taken under load. A workload that takes none under load reports
	// these.
	var end connRun
	for _, ss := range active {
		if err := snapshotOf(s.clients[ss.conn], ss, k, root, &end); err != nil {
			o.failed++
			o.check(false, "%v", err)
		}
	}
	o.attempted += uint64(len(active))
	if o.layer["snapshot.samples"] == 0 {
		snapshotMetrics(o.layer, &end)
	}
	o.layer["serve.failed"] = float64(o.failed)
	o.check(s.requests > 0, "no request completed")
}

// replay trains p on exactly the traces session ss was sent.
func (s *serveLoad) replay(ss *session, p predictor.NextTracePredictor) {
	cur := s.st.Cursor()
	skip(cur, ss.offset)
	batch := make([]trace.Trace, refBatch)
	for left := ss.sent; left > 0; {
		m := min(left, uint64(refBatch))
		fill(cur, batch[:m])
		predictor.UpdateBatch(p, batch[:m])
		left -= m
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
